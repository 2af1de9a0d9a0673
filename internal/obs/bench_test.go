package obs

import (
	"testing"

	"misar/internal/isa"
	"misar/internal/sim"
)

// BenchmarkFlightRecord times the recorder's per-event cost, one ring-slot
// store (see FlightRecorder.Record). The flight recorder is always on, so
// misar-bench gates it against the base revision.
func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(DefaultFlightCapacity)
	ev := FlightEvent{At: 1, Kind: FMsaReq, Tile: 3, Core: 7, Addr: 0x1000040, Arg: uint32(isa.OpLock)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.At++
		f.Record(ev)
	}
}

func nopCall(any) {}

// newChurnEngine returns an engine whose pool and heap slice are warm.
func newChurnEngine() *sim.Engine {
	e := sim.NewEngine()
	for i := 0; i < 64; i++ {
		e.AtCall(sim.Time(i), nopCall, nil)
	}
	e.Run()
	return e
}

// churn runs n iterations of internal/sim's engine-churn loop with the
// flight recorder attached: each iteration fires two engine events, so
// recording every second iteration is one record per 4 fired events.
// Sync-heavy app runs record denser than that, one flight event per 1.7-2.9
// fired engine events (streamcluster/fluidanimate at 8-32 tiles,
// Engine.Fired vs FlightRecorder.Total, cores' issue/complete records
// included). f == nil is the bare reference: the nil check is the exact
// branch real call sites pay.
func churn(e *sim.Engine, f *FlightRecorder, n int) {
	for i := 0; i < n; i++ {
		e.AfterCall(3, nopCall, nil)
		dead := e.AfterCall(5, nopCall, nil)
		e.AfterCall(1, nopCall, nil)
		dead.Cancel()
		e.Step()
		e.Step()
		if i&1 == 0 {
			f.Record(FlightEvent{At: e.Now(), Kind: FMsaReq, Tile: 1, Core: 2, Addr: 0x1000040, Arg: uint32(isa.OpLock)})
		}
	}
}

func churnLoop(b *testing.B, f *FlightRecorder) {
	e := newChurnEngine()
	b.ReportAllocs()
	b.ResetTimer()
	churn(e, f, b.N)
}

// BenchmarkEngineChurnBare is the reference for the flight-recorder
// overhead: the same loop as BenchmarkEngineChurnFlight with a nil
// recorder. misar-bench holds the Flight/Bare median ratio at 5%.
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
		if d := Dump(f); len(d.Events) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
