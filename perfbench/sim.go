package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"hmg/internal/check"
	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// simWorkload runs a benchmark × protocol matrix on one goroutine. A
// pass generates each benchmark's trace (set-up), then for every cell
// builds a fresh gsim.System (set-up) and runs the trace on it (the
// timed section). Traces are shared by a benchmark's cells: gsim only
// reads them.
type simWorkload struct {
	benches []workload.Params
	kinds   []proto.Kind
	scale   float64
	runner  *experiments.Runner
	// pins holds each cell's simulated cycles and events at the default
	// seed; nil at any other seed.
	pins map[string]pin
	// ref holds each cell's encoded Results from the first pass, which
	// every later pass must reproduce byte for byte.
	ref map[string][]byte
}

// pin is a cell's expected simulated outcome, in the layout of the
// BENCH_*.json snapshots ("runs": [{bench, protocol, cycles, events}]).
type pin struct {
	Bench    string `json:"bench"`
	Protocol string `json:"protocol"`
	Cycles   uint64 `json:"cycles"`
	Events   uint64 `json:"events"`
}

// readPins loads a BENCH_*.json-shaped pin file keyed by cell.
func readPins(buf []byte) (map[string]pin, error) {
	var snap struct {
		Runs []pin `json:"runs"`
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		return nil, err
	}
	if len(snap.Runs) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	pins := make(map[string]pin, len(snap.Runs))
	for _, p := range snap.Runs {
		pins[p.Bench+"/"+p.Protocol] = p
	}
	return pins, nil
}

// newSimWorkload resolves the matrix. The seed is XORed into every
// benchmark's Table III seed, so seed 0 reproduces the suite.
func newSimWorkload(benches []string, kinds []proto.Kind, shape topo.Spec, scale float64, seed int64, pins map[string]pin) (*simWorkload, error) {
	r, err := experiments.NewRunner(experiments.Options{Scale: scale, Topo: shape})
	if err != nil {
		return nil, err
	}
	w := &simWorkload{kinds: kinds, scale: scale, runner: r, ref: map[string][]byte{}}
	for _, b := range benches {
		p, err := workload.Get(b)
		if err != nil {
			return nil, err
		}
		p.Seed ^= seed
		w.benches = append(w.benches, p)
	}
	if seed == 0 {
		w.pins = pins
	}
	return w, nil
}

func (w *simWorkload) pass(tr *tracer, checked bool) (passStats, error) {
	st := newPassStats()
	shape := w.runner.Config(proto.HMG, experiments.Variant{}).Topo
	traces := make([]*trace.Trace, len(w.benches))
	for i, p := range w.benches {
		s, _ := tr.do("workload.Params.Generate", func() error {
			traces[i] = p.Generate(shape, w.scale)
			return nil
		})
		st.setup += s.dur()
		st.layer["workload.generate_s"] += s.dur().Seconds()
		st.layer["workload.ops"] += float64(traces[i].Ops())
	}
	for i, p := range w.benches {
		for _, kind := range w.kinds {
			cell := p.Abbrev + "/" + kind.String()
			st.attempted++
			var sys *gsim.System
			s, err := tr.do("gsim.New", func() (err error) {
				sys, err = gsim.New(w.runner.Config(kind, experiments.Variant{}))
				return err
			})
			st.setup += s.dur()
			st.layer["gsim.new_s"] += s.dur().Seconds()
			if err != nil {
				st.fail(cell, err)
				continue
			}
			var chk *check.Checker
			if checked {
				chk = check.Attach(sys)
			}
			// Collect the previous cell's garbage outside the timed
			// section, so every run starts from the same heap.
			runtime.GC()
			var res *gsim.Results
			s, err = tr.do("gsim.System.Run", func() (err error) {
				res, err = sys.Run(traces[i])
				return err
			})
			st.wall += s.dur()
			st.layer["gsim.run_s"] += s.dur().Seconds()
			st.layer["gsim.run_s."+kind.String()] += s.dur().Seconds()
			st.layer["runtime.gc_cycles"] += float64(s.NumGC)
			st.mallocs += s.Mallocs
			if err != nil {
				st.fail(cell, err)
				continue
			}
			st.events += res.EventsExecuted
			st.addCounters(res)
			if err := w.verify(cell, res, traces[i], chk); err != nil {
				st.fail(cell, err)
			}
		}
	}
	return st, nil
}

// verify applies the correctness pins to one cell's results: every
// trace op retired, the default-seed cycles and events, byte-identical
// Results across passes, and a clean invariant checker when attached.
func (w *simWorkload) verify(cell string, res *gsim.Results, tr *trace.Trace, chk *check.Checker) error {
	if res.Ops != uint64(tr.Ops()) {
		return fmt.Errorf("retired %d of %d trace ops", res.Ops, tr.Ops())
	}
	if w.pins != nil {
		p, ok := w.pins[cell]
		if !ok {
			return fmt.Errorf("no pin for cell")
		}
		if uint64(res.Cycles) != p.Cycles || res.EventsExecuted != p.Events {
			return fmt.Errorf("%d cycles, %d events; pinned %d cycles, %d events",
				res.Cycles, res.EventsExecuted, p.Cycles, p.Events)
		}
	}
	enc, err := res.MarshalBinary()
	if err != nil {
		return err
	}
	if prev, ok := w.ref[cell]; !ok {
		w.ref[cell] = enc
	} else if !bytes.Equal(prev, enc) {
		return fmt.Errorf("results differ from the first pass")
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			return err
		}
	}
	return nil
}
