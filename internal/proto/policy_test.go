package proto

import (
	"strings"
	"testing"
)

func TestKindStringsAndParse(t *testing.T) {
	all := AllKinds()
	if len(Kinds()) != 6 {
		t.Fatalf("paper configurations = %d, want 6", len(Kinds()))
	}
	// AllKinds is every kind ParseKind accepts: kinds are numbered from
	// zero, so the next number must not parse.
	if len(all) != 8 {
		t.Fatalf("AllKinds = %v, want the paper's 6 plus GPU-VI-MCA and CARVE", all)
	}
	if _, err := ParseKind(Kind(len(all)).String()); err == nil {
		t.Errorf("AllKinds misses %v", Kind(len(all)))
	}
	for _, k := range all {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
		back, err := ParseKind(s)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", s, back, err)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind string")
	}
	if _, err := ParseKind("zzz"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

func TestPolicyFlags(t *testing.T) {
	cases := []struct {
		k                                      Kind
		hier, hw, remote, noCoh, classify, mca bool
	}{
		{NoRemoteCache, false, false, false, false, false, false},
		{SWNonHier, false, false, true, false, false, false},
		{SWHier, true, false, true, false, false, false},
		{NHCC, false, true, true, false, false, false},
		{HMG, true, true, true, false, false, false},
		{Ideal, true, false, true, true, false, false},
		{CARVE, false, false, true, false, true, false},
		{GPUVI, false, true, true, false, false, true},
	}
	for _, c := range cases {
		p := For(c.k)
		if p.Kind != c.k || p.Hierarchical != c.hier || p.Hardware != c.hw ||
			p.CacheRemoteGPU != c.remote || p.NoCoherence != c.noCoh ||
			p.Classify != c.classify || p.MCA != c.mca {
			t.Errorf("%v policy = %+v", c.k, p)
		}
	}
}

func TestForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("For(99) did not panic")
		}
	}()
	For(Kind(99))
}
