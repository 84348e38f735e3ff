package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"testing"
	"time"

	"dynamo/internal/config"
	"dynamo/internal/core"
	"dynamo/internal/rpc"
	"dynamo/internal/simclock"
	"dynamo/internal/statestore"
	"dynamo/internal/wire"
)

// freePort reserves an ephemeral localhost port and returns its address.
// The listener is closed before the daemon binds it; the small window in
// between is acceptable for a local test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialWait dials addr with retries until the deadline (daemon listeners
// come up asynchronously after process start).
func dialWait(t *testing.T, addr string, loop *simclock.WallLoop, deadline time.Time) *rpc.TCPClient {
	t.Helper()
	for {
		cl, err := rpc.DialTCP(addr, loop)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// call performs one blocking RPC from a wall loop.
func call(loop *simclock.WallLoop, cl *rpc.TCPClient, method string, req wire.Message, out wire.Message) error {
	done := make(chan error, 1)
	loop.Post(func() {
		cl.Call(method, req, 2*time.Second, func(resp []byte, err error) {
			if err != nil {
				done <- err
				return
			}
			done <- wire.Unmarshal(resp, out)
		})
	})
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		return fmt.Errorf("call %s timed out", method)
	}
}

// TestProcessFailoverOverTCP is the full cross-process failover path: two
// dynamo-suited daemons running the same one-leaf suite as a
// primary/backup pair over real TCP, the primary capping a fleet of
// in-test agents while shipping its checkpoint stream to the backup's
// state store. The primary is launched first, before the backup's store
// listens. SIGKILL the primary mid-capping; the backup must promote, adopt
// the replicated journal, resume the primary's cycle numbering with no
// gap, and keep controlling the fleet.
func TestProcessFailoverOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	dir := t.TempDir()
	bin := dir + "/dynamo-suited"
	build := exec.Command("go", "build", "-o", bin, "dynamo/cmd/dynamo-suited")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}

	loop := simclock.NewWallLoop()
	defer loop.Close()

	// In-test fleet: four agents at ~295 W each; a 1.1 kW limit forces a
	// capping episode (as in TestTCPEndToEndCapping).
	const n = 4
	var agents []config.AgentEntry
	for i := 0; i < n; i++ {
		a := startAgent(t, loop, fmt.Sprintf("fsrv%02d", i), 0.8)
		agents = append(agents, config.AgentEntry{ID: a.host.ID(), Service: "web", Addr: a.addr})
	}

	primaryCtrl := freePort(t)
	backupCtrl := freePort(t)
	backupStore := freePort(t)
	backupMetrics := freePort(t)

	// The pair runs one suite of one leaf; only the listen address differs.
	suiteFile := func(name, listen string) string {
		b, err := json.Marshal(config.Suite{Name: "e2e", Controllers: []config.Controller{{
			Device: "rpp-e2e", Level: "leaf", LimitWatts: 1100, PollSeconds: 0.3,
			Agents: agents, Listen: listen,
		}}})
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var primaryLog, backupLog bytes.Buffer
	daemon := func(logBuf *bytes.Buffer, args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logBuf
		cmd.Stderr = logBuf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	dumpLogs := func() {
		t.Logf("primary log:\n%s", primaryLog.String())
		t.Logf("backup log:\n%s", backupLog.String())
	}

	primary := daemon(&primaryLog,
		"-config", suiteFile("primary.json", primaryCtrl),
		"-store-peers", backupStore, "-store-interval", "150ms")
	daemon(&backupLog,
		"-config", suiteFile("backup.json", backupCtrl),
		"-primary", primaryCtrl, "-store-listen", backupStore,
		"-metrics-addr", backupMetrics)

	// Wait for the primary to settle into a capping episode.
	pc := dialWait(t, primaryCtrl, loop, time.Now().Add(10*time.Second))
	defer pc.Close()
	deadline := time.Now().Add(25 * time.Second)
	var killCycles uint64
	for {
		if time.Now().After(deadline) {
			dumpLogs()
			t.Fatal("primary never settled into capping")
		}
		time.Sleep(300 * time.Millisecond)
		var pong core.CtrlPingResponse
		if err := call(loop, pc, core.MethodCtrlPing, rpc.Empty, &pong); err != nil {
			continue
		}
		var read core.CtrlReadPowerResponse
		if err := call(loop, pc, core.MethodCtrlReadPower, rpc.Empty, &read); err != nil {
			continue
		}
		if pong.Healthy && pong.Cycles >= 8 && read.Valid && read.AggWatts <= 1100*0.99+1 {
			killCycles = pong.Cycles
			break
		}
	}

	// Wait for the checkpoint stream to reach the backup's store replica.
	sc := dialWait(t, backupStore, loop, time.Now().Add(10*time.Second))
	defer sc.Close()
	for {
		if time.Now().After(deadline) {
			dumpLogs()
			t.Fatal("checkpoints never replicated to the backup store")
		}
		var pong statestore.PingResponse
		if err := call(loop, sc, statestore.MethodPing, rpc.Empty, &pong); err == nil &&
			pong.Devices >= 1 && pong.Entries >= 5 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Kill the primary mid-capping (SIGKILL: no graceful shutdown).
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()

	// The backup must detect the failure, adopt the replicated journal,
	// and come alive serving the control protocol.
	bc := dialWait(t, backupCtrl, loop, time.Now().Add(10*time.Second))
	defer bc.Close()
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			dumpLogs()
			t.Fatal("backup never promoted after primary kill")
		}
		var pong core.CtrlPingResponse
		if err := call(loop, bc, core.MethodCtrlPing, rpc.Empty, &pong); err == nil &&
			pong.Healthy && pong.Cycles > killCycles {
			// Promoted, and the cycle counter has passed the primary's
			// pre-kill count: numbering resumed, not restarted.
			break
		}
		time.Sleep(300 * time.Millisecond)
	}

	// The journal spanning the handoff must be gap-free and duplicate-free,
	// and must retain the primary's capping episode.
	resp, err := http.Get("http://" + backupMetrics + "/debug/state")
	if err != nil {
		dumpLogs()
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		State struct {
			Suite       string                  `json:"suite"`
			Controllers []core.ControllerStatus `json:"controllers"`
		} `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.State.Controllers) != 1 {
		t.Fatalf("backup suite %q reports %d controllers, want 1", payload.State.Suite, len(payload.State.Controllers))
	}
	st := payload.State.Controllers[0]
	if !st.Running {
		t.Error("promoted backup reports not running")
	}
	if len(st.Decisions) == 0 {
		t.Fatal("promoted backup has no decision records")
	}
	sawCap := false
	for i, d := range st.Decisions {
		if i > 0 && d.Cycle != st.Decisions[i-1].Cycle+1 {
			dumpLogs()
			t.Fatalf("journal gap or duplicate across failover: cycle %d follows %d",
				d.Cycle, st.Decisions[i-1].Cycle)
		}
		if d.Action == "cap" {
			sawCap = true
		}
	}
	if !sawCap {
		t.Error("capping episode missing from the failover-spanning journal")
	}
	if st.Cycles <= killCycles {
		t.Errorf("backup cycles %d did not pass the primary's pre-kill count %d", st.Cycles, killCycles)
	}
}
