// Package linttest runs an internal/lint analyzer over testdata packages
// and checks its findings against annotations in the source.
//
// Each analyzer package has testdata/src/<pkg>/ directories containing
// small Go packages annotated with trailing `// want "regex"` comments.
// Run loads a package (resolving sibling testdata imports first and
// falling back to the source-form stdlib importer), executes the analyzer
// through the same lint.Pass the vet tool uses, and verifies that reported
// diagnostics and want annotations match one-to-one by file and line.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dynamo/internal/lint"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run analyzes each named package under dir/src and reports mismatches
// between diagnostics and `// want` annotations as test errors.
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, dir, a, pkg)
	}
}

type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, "src", path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pass, err := l.load(path)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pass.Pkg
		return pass.Pkg, nil
	}
	return l.std.Import(path)
}

// load parses and typechecks one testdata package.
func (l *loader) load(path string) (*lint.Pass, error) {
	dir := filepath.Join(l.root, "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	return lint.Check(types.Config{Importer: l}, l.fset, path, files)
}

func runOne(t *testing.T, dir string, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	l := &loader{root: dir, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	pass, err := l.load(pkgPath)
	if err != nil {
		t.Errorf("%s: %v", pkgPath, err)
		return
	}
	wants := collectWants(t, l.fset, pass.Files)
	checkDiags(t, l.fset, pkgPath, pass.Run(a), wants)
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: pat})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a sequence of Go-quoted or backquoted strings.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return out
			}
			if q, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, q)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}

func checkDiags(t *testing.T, fset *token.FileSet, pkgPath string, diags []lint.Diagnostic, wants []*want) {
	t.Helper()
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", pkgPath, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", pkgPath, filepath.Base(w.file), w.line, w.text)
		}
	}
}
