package memory

import (
	"testing"

	"hmg/internal/engine"
)

func TestReadLatency(t *testing.T) {
	e := engine.New(1.3e9)
	d := New(e, Config{BandwidthGBs: 0, Latency: 250, LineSize: 128})
	var at engine.Cycle
	d.Read(0, func() { at = e.Now() })
	e.Drain()
	if at != 250 {
		t.Fatalf("read completed at %d, want 250", at)
	}
	if d.Stats.Reads != 1 || d.Stats.Bytes != 128 {
		t.Fatalf("stats = %+v", d.Stats)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	e := engine.New(1.3e9)
	// 130 GB/s = 100 B/cyc; a 128B line occupies 2 cycles.
	d := New(e, Config{BandwidthGBs: 130, Latency: 10, LineSize: 128})
	var times []engine.Cycle
	for i := 0; i < 3; i++ {
		d.Read(0, func() { times = append(times, e.Now()) })
	}
	e.Drain()
	// 1.28 cycles of serialization per line, accumulated fractionally.
	want := []engine.Cycle{12, 13, 14}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("read %d at %d, want %d (FIFO bandwidth queue)", i, times[i], want[i])
		}
	}
}

// TestWriteDelaysRead: a posted write takes no callback, but its bytes
// occupy the partition's bandwidth, so a read issued behind it finishes
// later than on an idle partition.
func TestWriteDelaysRead(t *testing.T) {
	readAt := func(writeBytes int) engine.Cycle {
		e := engine.New(1.3e9)
		// 130 GB/s = 100 B/cyc.
		d := New(e, Config{BandwidthGBs: 130, Latency: 10, LineSize: 128})
		if writeBytes > 0 {
			d.Write(writeBytes)
		}
		var at engine.Cycle
		d.Read(0, func() { at = e.Now() })
		e.Drain()
		if writeBytes > 0 && (d.Stats.Writes != 1 || d.Stats.Bytes != uint64(writeBytes+128)) {
			t.Fatalf("stats = %+v", d.Stats)
		}
		return at
	}
	// Idle: ceil(1.28) + 10. Behind 1280 B: ceil(12.8 + 1.28) + 10.
	if idle, busy := readAt(0), readAt(1280); idle != 12 || busy != 25 {
		t.Fatalf("read at %d idle and %d behind a write, want 12 and 25", idle, busy)
	}
}

func TestValueStore(t *testing.T) {
	e := engine.New(0)
	d := New(e, DefaultConfig())
	if d.LoadValue(64) != 0 {
		t.Fatal("unwritten word not zero")
	}
	d.StoreValue(64, 42)
	d.StoreValue(68, 43)
	if d.LoadValue(64) != 42 || d.LoadValue(68) != 43 {
		t.Fatal("StoreValue/LoadValue mismatch")
	}
	// Overwrite.
	d.StoreValue(64, 99)
	if d.LoadValue(64) != 99 {
		t.Fatal("overwrite failed")
	}
}

func TestLineValues(t *testing.T) {
	e := engine.New(0)
	d := New(e, DefaultConfig())
	if d.LineValues(1) != nil {
		t.Fatal("LineValues non-nil for untouched line")
	}
	// Line 1 covers bytes 128..255; words 32..63 globally.
	d.StoreValue(128, 7)  // word 0 of line 1
	d.StoreValue(132, 8)  // word 1 of line 1
	d.StoreValue(256, 99) // line 2, must not appear
	vals := d.LineValues(1)
	if len(vals) != 2 || vals[0] != 7 || vals[1] != 8 {
		t.Fatalf("LineValues = %v", vals)
	}
}
