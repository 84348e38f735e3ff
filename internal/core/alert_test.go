package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamo/internal/power"
)

// TestAlertRendering renders one alert or event of every kind and matches
// it byte for byte against the text controllers formatted when they raised
// it, before alerts became values: each want below is built from the
// format string and arguments the emit site used to pass.
func TestAlertRendering(t *testing.T) {
	errDown := errors.New("rpc: timeout")
	const peer, child = "dc1/rpp1/rack01/srv00004", "dc1/msb1/sb1/rpp2"
	agg, reading := power.Watts(101234.5678), power.Watts(80012.25)
	failures, pulls := 7, 30
	failFrac := float64(failures) / float64(pulls)
	diff := float64(agg-reading) / float64(reading)
	cases := []struct {
		a    Alert
		want string
	}{
		{Alert{Kind: KindQuarantined, Peer: peer, Count: 3},
			fmt.Sprintf("agent %s quarantined after %d consecutive failed pulls; estimating until a probe succeeds", peer, 3)},
		{Alert{Kind: KindReadmitted, Peer: peer},
			fmt.Sprintf("agent %s re-admitted after successful probe", peer)},
		{Alert{Kind: KindRestarting, Peer: peer},
			fmt.Sprintf("agent %s quarantined; restarting it", peer)},
		{Alert{Kind: KindPullsFailed, Count: failures, Of: pulls},
			fmt.Sprintf("power aggregation invalid: %d/%d pulls failed (%.0f%% > %.0f%%)",
				failures, pulls, failFrac*100, maxFailureFrac*100)},
		{Alert{Kind: KindChildrenStale, Count: 3, Of: 4},
			fmt.Sprintf("aggregation invalid: %d/%d children unreachable", 3, 4)},
		{Alert{Kind: KindBreakerMismatch, Watts: agg, Ref: reading},
			fmt.Sprintf("aggregation %v disagrees with breaker reading %v by %.1f%%", agg, reading, diff*100)},
		{Alert{Kind: KindBreakerMismatch, Watts: reading, Ref: agg},
			fmt.Sprintf("aggregation %v disagrees with breaker reading %v by %.1f%%", reading, agg,
				-float64(reading-agg)/float64(agg)*100)},
		{Alert{Kind: KindShortfall, Watts: 0.000244140625},
			fmt.Sprintf("capping plan short by %v (SLA floors reached)", power.Watts(0.000244140625))},
		{Alert{Kind: KindDryRunCap, Count: 12, Watts: 2345.678},
			fmt.Sprintf("dry-run: would cap %d servers for %v total cut", 12, power.Watts(2345.678))},
		{Alert{Kind: KindDryRunUncap, Count: 30},
			fmt.Sprintf("dry-run: would uncap %d servers", 30)},
		{Alert{Kind: KindDryRunContract, Count: 2},
			fmt.Sprintf("dry-run: would contract %d children", 2)},
		{Alert{Kind: KindCommandFailed, Op: commandOps[opSetCap].what, Peer: peer},
			fmt.Sprintf("%s to %s failed", "cap command", peer)},
		{Alert{Kind: KindCommandFailed, Op: commandOps[opClearContract].what, Peer: child},
			fmt.Sprintf("%s to %s failed", "clear contract", child)},
		{Alert{Kind: KindCheckpointFenced, Epoch: 3},
			fmt.Sprintf("checkpoint fenced (stream epoch %d superseded by adoption); stopping zombie controller", uint64(3))},
		{Alert{Kind: KindCheckpointFailed, Err: errDown},
			fmt.Sprintf("checkpoint append failed: %v", errDown)},
		{Alert{Kind: KindPromoted, Count: 3, Of: 512, Epoch: 2},
			fmt.Sprintf("primary controller unresponsive for %d probes; backup promoted (%d journal records adopted from state store, epoch %d)",
				3, 512, uint64(2))},
		{Alert{Kind: KindPromotedFresh, Count: 3},
			fmt.Sprintf("primary controller unresponsive for %d probes; backup promoted with fresh state (no store)", 3)},
		{Alert{Kind: KindLeaseExpired, Watts: 254.5},
			fmt.Sprintf("cap lease expired; released %.0fW limit", float64(power.Watts(254.5)))},
		// The events that are not alerts, against the trace details they
		// replace.
		{Alert{Kind: KindRPCFailed, Op: "power pull", Peer: peer, Err: errDown},
			fmt.Sprintf("%s to %s: %v", "power pull", peer, errDown)},
		{Alert{Kind: KindRetry, Op: "Agent.ReadPower", Peer: peer, Count: 2, Err: errDown},
			fmt.Sprintf("retry %d of %s to %s after %v", 2, "Agent.ReadPower", peer, errDown)},
		{Alert{Kind: KindContractIssued, Peer: child, Watts: 61234.5},
			fmt.Sprintf("contract issued to %s: %v", child, power.Watts(61234.5))},
		{Alert{Kind: KindContractReceived, Watts: 61234.5},
			fmt.Sprintf("contract received: %v", power.Watts(61234.5))},
		{Alert{Kind: KindContractReceived},
			"contract cleared"},
	}
	covered := map[AlertKind]bool{}
	for _, c := range cases {
		covered[c.a.Kind] = true
		if got := c.a.Message(); got != c.want {
			t.Errorf("%v renders\n  %q\nwant\n  %q", c.a.Kind, got, c.want)
		}
	}
	for k := AlertKind(1); int(k) < len(kindLevels); k++ {
		if !covered[k] {
			t.Errorf("kind %v has no rendering case", k)
		}
	}

	// String frames the message exactly as Alert.String did.
	a := Alert{Time: 30*time.Minute + 3004*time.Millisecond, Kind: KindReadmitted, Controller: "dc1/msb1/sb1/rpp1", Peer: peer}
	a.Level = a.Kind.Level()
	want := fmt.Sprintf("[%v] %s %s: %s", a.Time, AlertInfo, a.Controller, fmt.Sprintf("agent %s re-admitted after successful probe", peer))
	if got := a.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
