package sim

import (
	"testing"

	"bgperf/internal/arrival"
	"bgperf/internal/rng"
)

// TestRingFIFOOrder checks the ring preserves FIFO order across wrap-around
// and growth.
func TestRingFIFOOrder(t *testing.T) {
	var f fifo
	f.init(8)
	next, expect := 0.0, 0.0
	// Interleave pushes and pops with a drifting population so head wraps
	// many times and the buffer grows twice.
	r := rng.New(3)
	for step := 0; step < 100000; step++ {
		if r.Float64() < 0.55 || f.len() == 0 {
			f.push(next)
			next++
		} else {
			if got := f.pop(); got != expect {
				t.Fatalf("step %d: pop = %g, want %g", step, got, expect)
			}
			expect++
		}
	}
	for f.len() > 0 {
		if got := f.pop(); got != expect {
			t.Fatalf("drain: pop = %g, want %g", got, expect)
		}
		expect++
	}
}

// TestRingGrowth checks capacity rounds up to powers of two and doubles
// exactly when the population exceeds it.
func TestRingGrowth(t *testing.T) {
	var f fifo
	f.init(5)
	if f.cap() != 8 {
		t.Fatalf("init(5) capacity = %d, want 8", f.cap())
	}
	for i := 0; i < 8; i++ {
		f.push(float64(i))
	}
	if f.cap() != 8 {
		t.Fatalf("capacity grew early: %d", f.cap())
	}
	f.push(8)
	if f.cap() != 16 {
		t.Fatalf("capacity after overflow = %d, want 16", f.cap())
	}
	for i := 0; i <= 8; i++ {
		if got := f.pop(); got != float64(i) {
			t.Fatalf("pop after growth = %g, want %d", got, i)
		}
	}
	// init on a grown ring reuses the backing array.
	buf := &f.buf[0]
	f.init(4)
	if &f.buf[0] != buf {
		t.Fatal("init reallocated a sufficiently large buffer")
	}
}

// TestRingReuseAcrossLongRun is the property test for the capacity-leak fix:
// the old `fgTimes = append(fgTimes, t); fgTimes = fgTimes[1:]` FIFO grew
// its backing array with every job ever simulated, so a 4x longer run did
// proportionally more allocating. The ring must instead reach its high-water
// capacity and then stay put: simulating 4x the horizon may not change the
// buffer capacity (the workload's queue population is what sizes it, not the
// run length), for both the single-class and two-priority simulators.
func TestRingReuseAcrossLongRun(t *testing.T) {
	m, err := arrival.MMPP2(0.02, 0.05, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(horizon float64) int {
		cfg, err := Config{
			Arrival: m, ServiceRate: 1, BGProb: 0.6, BGBuffer: 4, IdleRate: 1,
			Seed: 11, MeasureTime: horizon, Batches: 20,
		}.resolve()
		if err != nil {
			t.Fatal(err)
		}
		var rs runState
		rs.setup(cfg)
		for rs.now < rs.measEnd {
			next, kind := nextEvent(rs.nextArr, rs.serviceEnd, rs.idleExpiry, inf)
			rs.now = next
			switch kind {
			case evArrival:
				rs.fgQueue++
				rs.fgTimes.push(next)
				if rs.state == stateIdle || rs.state == stateIdleWait {
					rs.startFG()
				}
				rs.nextArr = next + rs.sampler.Next()
			case evService:
				if rs.state == stateServingFG {
					rs.fgTimes.pop()
					if rs.rng.Float64() < rs.bgProb && rs.bgQueue < rs.bgBuffer {
						rs.bgQueue++
					}
				}
				if rs.fgQueue > 0 {
					rs.startFG()
				} else {
					rs.armIdleOrRest()
				}
			default:
				rs.startBG()
			}
		}
		return rs.fgTimes.cap()
	}
	short, long := run(20000), run(80000)
	if short != long {
		t.Errorf("ring capacity depends on run length: %d slots at T, %d at 4T", short, long)
	}
	if short != fifoInitialCap {
		t.Errorf("ring grew past its initial capacity (%d -> %d): initial sizing too small for this workload", fifoInitialCap, short)
	}
}
