package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/report"
)

// campaignWorkload is a cold `hmgbench -fig 8` campaign: the runner
// and an empty result store are set up, Prewarm simulates the figure's
// plan on a two-worker pool, and Figure.Gen renders it (the timed
// section). A warm replay from the same store follows, outside the
// timed section: it must reproduce the bytes without simulating.
type campaignWorkload struct {
	opts experiments.Options
	fig  experiments.Figure
	plan []experiments.RunSpec
	// dir holds the campaign's temporary store (inside the checkout).
	dir string
	// want is the pinned stdout of the campaign.
	want []byte
}

// campaignSetupReps is how many times a pass sets up a runner and
// store; set-up takes well under a millisecond, so the pass reports
// the median of several.
const campaignSetupReps = 100

func newCampaignWorkload(dir string, want []byte, scale float64, jobs int) (*campaignWorkload, error) {
	w := &campaignWorkload{
		opts: experiments.Options{Scale: scale, Jobs: jobs},
		dir:  dir,
		want: want,
	}
	for _, f := range experiments.Figures() {
		if f.Name == "8" {
			w.fig = f
		}
	}
	if w.fig.Gen == nil {
		return nil, fmt.Errorf("campaign: figure 8 not registered")
	}
	w.plan = experiments.PlanUnion([]experiments.Figure{w.fig})
	return w, nil
}

// open opens the store at dir and a runner backed by it.
func (w *campaignWorkload) open(tr *tracer, dir string) (*experiments.Runner, error) {
	opts := w.opts
	_, err := tr.do("experiments.OpenStore", func() (err error) {
		opts.Store, err = experiments.OpenStore(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	return experiments.NewRunner(opts)
}

// rendered is one campaign's figure bytes and the spans of its
// Prewarm and rendering calls.
type rendered struct {
	out             []byte
	prewarm, render span
}

// render prewarms the plan, generates the figure, and renders it as
// hmgbench prints it.
func (w *campaignWorkload) render(tr *tracer, r *experiments.Runner) (rendered, error) {
	var c rendered
	var err error
	c.prewarm, err = tr.do("experiments.Runner.Prewarm", func() error { return r.Prewarm(w.plan) })
	if err != nil {
		return c, err
	}
	var tab *report.Table
	if _, err := tr.do("experiments.Figure.Gen", func() (err error) {
		tab, err = w.fig.Gen(r)
		return err
	}); err != nil {
		return c, err
	}
	c.render, _ = tr.do("report.Table.String", func() error {
		c.out = []byte(tab.String() + "\n")
		return nil
	})
	return c, nil
}

func (w *campaignWorkload) pass(tr *tracer, _ bool) (passStats, error) {
	st := newPassStats()
	dir := filepath.Join(w.dir, "store")
	var r *experiments.Runner
	var setups []float64
	for i := 0; i < campaignSetupReps; i++ {
		// Every set-up starts with no store on disk, as a cold campaign
		// does; opening the store creates it.
		if err := os.RemoveAll(dir); err != nil {
			return st, err
		}
		s, err := tr.do("bench.campaign_setup", func() (err error) {
			r, err = w.open(tr, dir)
			return err
		})
		if err != nil {
			return st, err
		}
		setups = append(setups, s.dur().Seconds())
	}
	defer os.RemoveAll(dir)
	st.setup = time.Duration(median(setups) * float64(time.Second))
	runtime.GC()

	// Cold: every run simulates and is written to the store.
	n := len(w.plan)
	st.attempted += n + 1
	var cold rendered
	s, err := tr.do("bench.cold_campaign", func() (err error) {
		cold, err = w.render(tr, r)
		return err
	})
	st.wall = s.dur()
	sum := r.Summary()
	st.events = sum.Events
	st.mallocs = cold.prewarm.Mallocs
	if missing := n - sum.UniqueRuns; missing > 0 {
		st.failed += missing
		fmt.Fprintf(os.Stderr, "FAIL cold campaign: %d of %d runs did not simulate\n", missing, n)
	}
	switch {
	case err != nil:
		st.fail("cold campaign", err)
	case sum.DiskWrites != n:
		st.fail("cold campaign", fmt.Errorf("%d runs stored, want %d", sum.DiskWrites, n))
	case !bytes.Equal(cold.out, w.want):
		st.fail("cold campaign", fmt.Errorf("figure bytes differ from the pinned reference"))
	}
	prewarm := cold.prewarm.dur().Seconds()
	st.layer["runtime.gc_cycles"] = float64(s.NumGC)
	st.layer["engine.events"] = float64(sum.Events)
	st.layer["experiments.prewarm_s"] = prewarm
	st.layer["experiments.unique_runs"] = float64(sum.UniqueRuns)
	st.layer["experiments.run_wall_s"] = sum.RunWall.Seconds()
	st.layer["experiments.worker_idle_s"] = prewarm*float64(w.opts.Jobs) - sum.RunWall.Seconds()
	st.layer["resstore.writes"] = float64(sum.DiskWrites)
	st.layer["report.render_s"] = cold.render.dur().Seconds()
	for _, spec := range w.plan {
		// Memo hits: the counters of the runs just simulated. Each run
		// generated its own trace, so their ops are the generated ops.
		if res, err := r.Run(spec.Bench, spec.Kind, spec.V); err == nil {
			st.addCounters(res)
			st.layer["workload.ops"] += float64(res.Ops)
		}
	}

	// Warm: a new runner on the same store replays without simulating.
	st.attempted++
	var warm rendered
	var warmSum experiments.Summary
	s, err = tr.do("bench.warm_replay", func() error {
		r2, err := w.open(tr, dir)
		if err != nil {
			return err
		}
		warm, err = w.render(tr, r2)
		warmSum = r2.Summary()
		return err
	})
	st.layer["resstore.warm_s"] = s.dur().Seconds()
	st.layer["resstore.disk_hits"] = float64(warmSum.DiskHits)
	switch {
	case err != nil:
		st.fail("warm replay", err)
	case warmSum.UniqueRuns != 0 || warmSum.DiskHits != n:
		st.fail("warm replay", fmt.Errorf("%d runs simulated, %d disk hits; want 0 and %d", warmSum.UniqueRuns, warmSum.DiskHits, n))
	case !bytes.Equal(warm.out, cold.out):
		st.fail("warm replay", fmt.Errorf("warm bytes differ from the cold run"))
	}
	return st, nil
}
