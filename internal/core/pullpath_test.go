package core

import (
	"testing"
	"time"

	"dynamo/internal/faults"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/wire"
)

// wrapDial decorates a dial function so every client it returns goes
// through the injector, keyed by the dialed address.
func wrapDial(inj *faults.Injector, dial func(addr string) rpc.Client) func(addr string) rpc.Client {
	return func(addr string) rpc.Client { return inj.WrapClient(addr, dial(addr)) }
}

// TestOverlappingPullsKeepTheirOwnReading: two controllers pull the same
// child in overlapping cycles and the child answers each pull differently.
// Each controller also has an unreachable child (one in five, so the cycle
// stays valid) that keeps its cycle open until that pull times out — long
// after the call records of the children that answered have gone back to
// the transport and carried the other controller's pulls. Each controller
// must still aggregate the reading the child gave to it: the response bytes
// are only the caller's until its completion callback returns, so onPull
// has to copy them, not keep them.
func TestOverlappingPullsKeepTheirOwnReading(t *testing.T) {
	for _, lv := range bothLevels {
		t.Run(lv.name, func(t *testing.T) {
			loop := simclock.NewSimLoop()
			loop.SetStepLimit(100_000)
			net := rpc.NewNetwork(loop, 2*time.Millisecond, 1)
			var returned []float64
			net.Register(lv.addr("shared"), func(string, []byte) (wire.Message, error) {
				w := 100 + 10*float64(len(returned)+1)
				returned = append(returned, w)
				return lv.answer(w), nil
			})
			for _, id := range []string{"pad1", "pad2", "pad3"} {
				net.Register(lv.addr(id), func(string, []byte) (wire.Message, error) { return lv.answer(0), nil })
			}
			inj := faults.New(loop, 1, nil)
			build := func(device, lost string) *cycleKernel {
				inj.Add(faults.Partition(lv.addr(lost), 0, 0))
				return lv.build(loop, device, []string{"shared", "pad1", "pad2", "pad3", lost}, wrapDial(inj, net.Dial))
			}
			a, b := build("dev-a", "lost-a"), build("dev-b", "lost-b")

			// a polls every period and closes each cycle one pull timeout
			// later, when its lost child times out; b runs the same schedule
			// one second behind, so b's pull of the shared child always
			// lands inside a's open cycle.
			period, closes := a.pollInterval, a.pullTimeout+time.Millisecond
			a.Start()
			loop.RunUntil(time.Second)
			b.Start()
			for cycle := 0; cycle < 3; cycle++ {
				polled := time.Duration(cycle+1) * period
				loop.RunUntil(polled + closes)
				if len(returned) != 2*cycle+2 {
					t.Fatalf("cycle %d: child served %d pulls, want %d", cycle, len(returned), 2*cycle+2)
				}
				want := returned[2*cycle]
				if got := childReading(a, 0); got != want {
					t.Fatalf("cycle %d: a read %v W from the shared child, which answered it %v W (and b %v W)",
						cycle, got, want, returned[2*cycle+1])
				}
				if agg, valid := a.LastAggregate(); !valid || float64(agg) != want {
					t.Fatalf("cycle %d: a's aggregate = %v (valid %v), want %v", cycle, agg, valid, want)
				}
				loop.RunUntil(polled + time.Second + closes)
				want = returned[2*cycle+1]
				if got := childReading(b, 0); got != want {
					t.Fatalf("cycle %d: b read %v W, the child answered it %v W", cycle, got, want)
				}
			}
		})
	}
}
