package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// buildTool compiles dynamo-vet into a temporary directory, as the README
// and CI do into bin/.
func buildTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped under -short")
	}
	bin := filepath.Join(t.TempDir(), "dynamo-vet")
	if out, err := goCmd(".", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// goCmd is a go command that can reach nothing outside the checkout.
func goCmd(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
	return cmd
}

// The throw-away module: a package named sim (so lint.Critical polices
// it) beside a stand-in telemetry package. Lines ending in "// want <rule>"
// must be reported, under that rule, and no others.
var scratchModule = map[string]string{
	"go.mod": "module scratch\n\ngo 1.22\n",
	"telemetry/telemetry.go": `package telemetry

type Counter struct{ n int }

func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}
`,
	"sim/sim.go": `package sim

import (
	"math/rand"
	"time"

	"scratch/telemetry"
)

type simInstr struct{ ticks *telemetry.Counter }

type Sim struct {
	tel   *simInstr
	loads map[string]float64
}

func (s *Sim) Tick() (time.Time, int, []string) {
	now := time.Now() // want wallclock
	n := rand.Intn(10) // want globalrand
	var names []string
	for name := range s.loads {
		names = append(names, name) // want maporder
	}
	s.tel.ticks.Inc() // want sinkguard
	return now, n, names
}

//dynamo:serial
func (s *Sim) commit(done chan struct{}) {
	go close(done) // want serialphase
}

func (s *Sim) hostLatency() time.Time {
	//lint:allow wallclock — measuring host latency for an operator metric
	return time.Now()
}

func (s *Sim) bare() {
	//lint:allow wallclock // want wallclock
}
`,
	"sim/sim_test.go": `package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestTick(t *testing.T) {
	if rand.Intn(2) > 2 || time.Now().IsZero() {
		t.Fatal("unreachable")
	}
}
`,
}

var (
	wantRe    = regexp.MustCompile(`// want (\w+)$`)
	findingRe = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (\w+): `)
)

func TestVetToolProtocol(t *testing.T) {
	bin := buildTool(t)
	mod := t.TempDir()
	var want []string
	for name, src := range scratchModule {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(src, "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				want = append(want, name+":"+strconv.Itoa(i+1)+" "+m[1])
			}
		}
	}
	sort.Strings(want)

	// One finding per analyzer plus the bare directive; nothing from the
	// reasoned directive's site or from sim_test.go, which reaches the
	// analyzers as part of the test variant the go command hands over.
	out, err := goCmd(mod, "vet", "-vettool="+bin, "./...").CombinedOutput()
	if err == nil {
		t.Errorf("go vet exited 0 on a package with findings\n%s", out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if m := findingRe.FindStringSubmatch(line); m != nil {
			got = append(got, filepath.ToSlash(filepath.Clean(m[1]))+":"+m[2]+" "+m[3])
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got  %q\n want %q\n%s", got, want, out)
	}

	if out, err := goCmd(mod, "vet", "-vettool="+bin, "./telemetry").CombinedOutput(); err != nil {
		t.Errorf("go vet on a clean package: %v\n%s", err, out)
	}

	version, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !regexp.MustCompile(`^\S+ version devel buildID=[0-9a-f]{64}\n$`).Match(version) {
		t.Errorf("-V=full printed %q, want one line ending in buildID=<hex>", version)
	}

	// A dependency visited for facts only: the (empty) facts file is
	// written and nothing else happens, not even reading the sources.
	vetx := filepath.Join(mod, "dep.vetx")
	cfg, err := json.Marshal(map[string]any{
		"Compiler": "gc", "ImportPath": "scratch/dep", "GoFiles": []string{filepath.Join(mod, "missing.go")},
		"VetxOnly": true, "VetxOutput": vetx,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgFile := filepath.Join(mod, "dep.cfg")
	if err := os.WriteFile(cfgFile, cfg, 0o666); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, cfgFile)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil || stderr.Len() > 0 {
		t.Errorf("VetxOnly unit: err %v, stderr %q", err, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOnly unit did not write its VetxOutput: %v", err)
	}
}

// TestTreeIsVetClean holds the repository to its own determinism contract
// from go test ./..., not only from CI.
func TestTreeIsVetClean(t *testing.T) {
	bin := buildTool(t)
	// The go command reuses a passing result until something this process
	// itself looked at changes, and only subprocesses read the sources:
	// list every directory so that an edit anywhere reruns the test.
	const root = "../.."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && d.Name()[0] == '.' {
			return filepath.SkipDir // .git, .bench_build
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := goCmd(root, "vet", "-vettool="+bin, "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=dynamo-vet ./...: %v\n%s", err, out)
	}
}
