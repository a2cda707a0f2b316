// Package proto defines the six coherence configurations the paper
// compares and the directory transition logic of Table I shared by NHCC
// and HMG.
//
// The configurations:
//
//   - NoRemoteCache — the normalization baseline: remote-GPU data is never
//     cached; intra-GPU caching is kept coherent by software (bulk
//     invalidation on acquire).
//   - SWNonHier — conventional software coherence with scopes extended to
//     a flat multi-GPU system: remote data is cached, acquires bulk-
//     invalidate the issuing SM's L1 and GPM-local L2.
//   - SWHier — the software protocol with the hierarchical extension:
//     loads route (and cache) through a GPU home node; .sys acquires
//     bulk-invalidate all L2 slices of the issuing GPU.
//   - NHCC — Section IV: flat hardware VI coherence with per-home
//     directories tracking GPM sharers, no transient states, no
//     invalidation acknowledgments.
//   - HMG — Section V: the paper's contribution; NHCC plus hierarchical
//     homes and hierarchical sharer tracking (GPU home nodes track GPM
//     sharers, system home nodes track GPU sharers).
//   - Ideal — caching everywhere with no coherence enforcement at all,
//     the loose performance upper bound.
package proto

import "fmt"

// Kind selects a coherence configuration.
type Kind int

const (
	// NoRemoteCache is the baseline that disallows caching of remote-GPU
	// data (speedups in the paper's figures are normalized to it).
	NoRemoteCache Kind = iota
	// SWNonHier is the non-hierarchical software protocol.
	SWNonHier
	// SWHier is the hierarchical software protocol.
	SWHier
	// NHCC is the non-hierarchical hardware protocol of Section IV.
	NHCC
	// HMG is the hierarchical hardware protocol of Section V.
	HMG
	// Ideal is idealized caching without coherence.
	Ideal
	// GPUVI is a related-work baseline modeling GPU-VI (Singh et al.,
	// HPCA 2013) extended flat across the machine, as the paper does in
	// Fig. 2 — but retaining its multi-copy-atomic memory model: stores
	// to shared data block the home line until every sharer has
	// acknowledged its invalidation. The paper's Section III-B argument
	// is that this cost, tolerable on one GPU, grows with the order-of-
	// magnitude larger inter-GPU round trips; this configuration
	// measures it.
	GPUVI
	// CARVE is a related-work baseline (Young et al., MICRO 2018, as
	// characterized in Section II-A/VII-A of the paper): hardware
	// coherence filtered by classifying regions as private, read-only,
	// or read-write shared — with no sharer tracking. Transitioning a
	// region to read-write broadcasts invalidations to all caches, and
	// read-write shared data is not cached remotely afterwards.
	CARVE
)

var kindNames = [...]string{
	NoRemoteCache: "NoRemoteCaching",
	SWNonHier:     "SW-NonHier",
	SWHier:        "SW-Hier",
	NHCC:          "NHCC",
	HMG:           "HMG",
	Ideal:         "Ideal",
	GPUVI:         "GPU-VI-MCA",
	CARVE:         "CARVE",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists the paper's six configurations in its presentation order.
// AllKinds adds the related-work baselines.
func Kinds() []Kind { return []Kind{NoRemoteCache, SWNonHier, NHCC, SWHier, HMG, Ideal} }

// AllKinds lists every configuration ParseKind accepts: the paper's six
// (Kinds), then the related-work baselines GPU-VI-MCA and CARVE.
func AllKinds() []Kind { return append(Kinds(), GPUVI, CARVE) }

// ParseKind resolves a configuration by name (case-sensitive, as printed
// by String).
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("proto: unknown protocol %q (known: %v)", s, kindNames)
}

// Policy is the behavioral decomposition of a Kind, consumed by the L2
// datapath.
type Policy struct {
	Kind Kind
	// Hierarchical routes requests through per-GPU home nodes, which may
	// cache remote-GPU data on behalf of the whole GPU.
	Hierarchical bool
	// Hardware enables coherence directories with precise sharer
	// tracking and background invalidations; acquire operations then
	// invalidate only the L1 (L2s are hardware-coherent).
	Hardware bool
	// CacheRemoteGPU allows L2 slices to cache lines whose backing page
	// lives on another GPU.
	CacheRemoteGPU bool
	// NoCoherence disables every coherence action (Ideal): acquires
	// invalidate nothing, releases do not wait for drains.
	NoCoherence bool
	// Downgrade sends sharer-downgrade messages on clean L2 evictions
	// (the optional optimization of Section IV, off in the paper's
	// evaluation and by default here).
	Downgrade bool
	// MCA enforces multi-copy-atomicity: stores block their home line
	// until all invalidation acknowledgments return (GPU-VI style).
	MCA bool
	// Classify replaces sharer tracking with CARVE-style region
	// classification: no directory, broadcast invalidation on the
	// transition to read-write sharing, and no remote caching of
	// read-write shared regions.
	Classify bool
}

// For returns the Policy of a Kind.
func For(k Kind) Policy {
	switch k {
	case NoRemoteCache:
		return Policy{Kind: k}
	case SWNonHier:
		return Policy{Kind: k, CacheRemoteGPU: true}
	case SWHier:
		return Policy{Kind: k, Hierarchical: true, CacheRemoteGPU: true}
	case NHCC:
		return Policy{Kind: k, Hardware: true, CacheRemoteGPU: true}
	case HMG:
		return Policy{Kind: k, Hierarchical: true, Hardware: true, CacheRemoteGPU: true}
	case Ideal:
		return Policy{Kind: k, Hierarchical: true, CacheRemoteGPU: true, NoCoherence: true}
	case GPUVI:
		return Policy{Kind: k, Hardware: true, CacheRemoteGPU: true, MCA: true}
	case CARVE:
		return Policy{Kind: k, CacheRemoteGPU: true, Classify: true}
	default:
		panic(fmt.Sprintf("proto: unknown kind %d", int(k)))
	}
}
