package obs

import (
	"testing"

	"misar/internal/isa"
	"misar/internal/sim"
)

// BenchmarkFlightRecord is the obs-overhead benchmark gated in CI via
// misar-bench -against/-max-regress: the flight recorder is always on, so
// its per-event cost must stay a handful of nanoseconds and zero
// allocations (one ring-slot store, see FlightRecorder.Record).
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightCapacity)
	ev := FlightEvent{At: 1, Kind: FMsaReq, Tile: 3, Core: 7, Addr: 0x1000040, Arg: uint32(isa.OpLock)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.At++
		f.Record(ev)
	}
}

// churnLoop is internal/sim's BenchmarkEngineChurn body with the flight
// recorder attached: each iteration fires two engine events, so recording
// every second iteration is one record per 4 fired events. Sync-heavy app
// runs record denser than that, one flight event per 1.7-2.9 fired engine
// events (streamcluster/fluidanimate at 8-32 tiles, Engine.Fired vs
// FlightRecorder.Total, cores' issue/complete records included). f == nil
// is the bare reference: the nil check is the exact branch real call sites
// pay.
func churnLoop(b *testing.B, f *FlightRecorder) {
	e := sim.NewEngine()
	nop := func(any) {}
	for i := 0; i < 64; i++ {
		e.AtCall(sim.Time(i), nop, nil)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(3, nop, nil)
		dead := e.AfterCall(5, nop, nil)
		e.AfterCall(1, nop, nil)
		dead.Cancel()
		e.Step()
		e.Step()
		if i&1 == 0 {
			f.Record(FlightEvent{At: e.Now(), Kind: FMsaReq, Tile: 1, Core: 2, Addr: 0x1000040, Arg: uint32(isa.OpLock)})
		}
	}
}

// BenchmarkEngineChurnBare is the reference for the flight-recorder
// overhead gate: the same loop as BenchmarkEngineChurnFlight with a nil
// recorder. misar-bench runs the pair back-to-back in one process (so
// machine noise largely cancels) and fails if the recorder costs more than
// 5%; -against gates the absolute numbers like every other benchmark.
func BenchmarkEngineChurnBare(b *testing.B)   { churnLoop(b, nil) }
func BenchmarkEngineChurnFlight(b *testing.B) { churnLoop(b, NewFlightRecorder(DefaultFlightCapacity)) }

// BenchmarkFlightSnapshot measures the dump path (taken only on failures
// and /flight requests, never on the hot path).
func BenchmarkFlightSnapshot(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightCapacity)
	for i := 0; i < DefaultFlightCapacity*2; i++ {
		f.Record(FlightEvent{At: at(i), Kind: FMsaReq})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := f.Snapshot(); len(d.Events) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
