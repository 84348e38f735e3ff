// Command dynamo-vet runs Dynamo's determinism-contract analyzers. It is
// stdlib-only and speaks the `go vet -vettool` unit protocol:
//
//	go build -o bin/dynamo-vet ./cmd/dynamo-vet
//	go vet -vettool=$(pwd)/bin/dynamo-vet ./...
//
// Active analyzers:
//
//	wallclock   — no wall-clock time in determinism-critical packages
//	globalrand  — no global math/rand source outside tests
//	maporder    — no map-iteration order feeding ordered outputs
//	serialphase — no goroutines/channel sends in //dynamo:serial functions
//	sinkguard   — nil guards on nil-means-disabled telemetry wrappers
//
// Findings are suppressible only via `//lint:allow <rule> — <reason>` with
// a mandatory reason; see internal/lint.
//
// The protocol is three invocations, all made by the go command:
// `-V=full` (identify the executable for the build cache), `-flags`
// (describe the tool's flags as JSON — it has none) and `<unit>.cfg`
// (analyze the one package the JSON file describes).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"dynamo/internal/lint"
	"dynamo/internal/lint/globalrand"
	"dynamo/internal/lint/maporder"
	"dynamo/internal/lint/serialphase"
	"dynamo/internal/lint/sinkguard"
	"dynamo/internal/lint/wallclock"
)

var analyzers = []*lint.Analyzer{
	wallclock.Analyzer,
	globalrand.Analyzer,
	maporder.Analyzer,
	serialphase.Analyzer,
	sinkguard.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynamo-vet: ")
	const usage = `want one argument, -V=full, -flags or <unit>.cfg; run me as "go vet -vettool=<path to dynamo-vet> ./..."`
	if len(os.Args) != 2 {
		log.Fatal(usage)
	}
	switch arg := os.Args[1]; {
	case arg == "-V=full":
		if err := printVersion(); err != nil {
			log.Fatal(err)
		}
	case arg == "-flags":
		fmt.Println("[]")
	case strings.HasSuffix(arg, ".cfg"):
		findings, err := vetUnit(arg)
		if err != nil {
			log.Fatal(err)
		}
		if findings > 0 {
			os.Exit(1)
		}
	default:
		log.Fatal(usage)
	}
}

// printVersion answers -V=full in the form the go command parses: a devel
// version whose buildID is a hash of this executable, so a rebuilt tool
// invalidates cached vet results.
func printVersion() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil))
	return nil
}

// unit is the part of the go command's vet config (one JSON file per
// package, test variants included) that the analyzers need.
type unit struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source → package path
	PackageFile map[string]string // package path → compiler export data
	VetxOnly    bool              // dependency visited for facts only: nothing to report
	VetxOutput  string            // facts file the go command caches; ours is always empty

	SucceedOnTypecheckFailure bool // the compiler will report it; stay quiet
}

// vetUnit analyzes the package cfgFile describes, prints its findings to
// stderr as file:line:col: message, and returns how many there were.
func vetUnit(cfgFile string) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg unit
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("decoding %s: %w", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	pass, err := typeCheck(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	findings := 0
	for _, a := range analyzers {
		for _, d := range pass.Run(a) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			findings++
		}
	}
	return findings, nil
}

func typeCheck(fset *token.FileSet, cfg *unit) (*lint.Pass, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolves vendoring and test variants
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return exports.Import(path)
		}),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	return lint.Check(conf, fset, cfg.ImportPath, files)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
