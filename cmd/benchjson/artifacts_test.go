package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// decodeStrict decodes data into v, rejecting fields v does not declare.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestCommittedArtifactsDecode decodes every committed BENCH_*.json at the
// schema this tool writes: BENCH_core.json as a whole bench-core document,
// BENCH_serve.json's schema version and throughput section. The serving
// experiments' own sections are decoded by internal/experiments' tests.
func TestCommittedArtifactsDecode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		switch name {
		case "BENCH_core.json":
			var doc document
			if err := decodeStrict(raw, &doc); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if doc.Schema != coreSchema || len(doc.Benchmarks) == 0 || len(doc.Ext11) == 0 {
				t.Errorf("%s: schema %q with %d benchmarks and ext11 %t, want %q with both",
					name, doc.Schema, len(doc.Benchmarks), len(doc.Ext11) > 0, coreSchema)
			}
		case "BENCH_serve.json":
			var top struct {
				Schema     int             `json:"schema"`
				Throughput json.RawMessage `json:"throughput"`
			}
			if err := json.Unmarshal(raw, &top); err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if top.Schema != serveSchema {
				t.Errorf("%s: schema %d, this tool writes %d", name, top.Schema, serveSchema)
			}
			var section throughputSection
			if err := decodeStrict(top.Throughput, &section); err != nil {
				t.Errorf("%s throughput: %v", name, err)
			} else if len(section.Benchmarks) == 0 {
				t.Errorf("%s: throughput section holds no benchmarks", name)
			}
		default:
			t.Errorf("%s: no schema is known for this artifact", name)
		}
	}
}

// citedBenchName matches the BENCH names the docs cite: a serving or EXT11
// section, or a benchmark of the families bench.sh records.
var citedBenchName = regexp.MustCompile(
	`\bext[0-9]+_[a-z0-9_]+|\bBenchmark(?:Core|ServeThroughput|ShardedAdmission|AppendSubmitResponse)[A-Za-z0-9_/=*-]*`)

// missingBenchNames returns the names doc cites that no committed name
// answers. A name ending in "/" or "*" must prefix a committed one; any
// other must equal one or be the benchmark function of committed
// sub-benchmarks.
func missingBenchNames(doc string, committed []string) []string {
	var missing []string
	for _, cited := range citedBenchName.FindAllString(doc, -1) {
		prefix := strings.TrimSuffix(cited, "*")
		if prefix == cited && !strings.HasSuffix(cited, "/") {
			prefix = cited + "/"
		}
		found := false
		for _, name := range committed {
			found = found || name == cited || strings.HasPrefix(name, prefix)
		}
		if !found {
			missing = append(missing, cited)
		}
	}
	return missing
}

// TestDocsCiteCommittedBenchNames checks every BENCH name README.md,
// EXPERIMENTS.md and DESIGN.md cite against the committed BENCH_serve.json
// and BENCH_core.json.
func TestDocsCiteCommittedBenchNames(t *testing.T) {
	var committed []string
	raw, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var core document
	if err := json.Unmarshal(raw, &core); err != nil {
		t.Fatalf("BENCH_core.json: %v", err)
	}
	var ext11 struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(core.Ext11, &ext11); err != nil {
		t.Fatalf("BENCH_core.json ext11: %v", err)
	}
	committed = append(committed, ext11.Experiment)
	for _, b := range core.Benchmarks {
		committed = append(committed, b.Name)
	}
	raw, err = os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	var serve map[string]json.RawMessage
	if err := json.Unmarshal(raw, &serve); err != nil {
		t.Fatalf("BENCH_serve.json: %v", err)
	}
	var throughput throughputSection
	if err := json.Unmarshal(serve["throughput"], &throughput); err != nil {
		t.Fatalf("BENCH_serve.json throughput: %v", err)
	}
	for key := range serve {
		committed = append(committed, key)
	}
	for _, b := range throughput.Benchmarks {
		committed = append(committed, b.Name)
	}

	if got := missingBenchNames("`BenchmarkCoreNoSuchBench`, `ext99_none`, `BenchmarkServeThroughput/`", committed); len(got) != 2 {
		t.Fatalf("the check finds %q missing, want the first two names", got)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range missingBenchNames(string(text), committed) {
			t.Errorf("%s cites %s, which no committed BENCH file holds", doc, name)
		}
	}
}

// citedGoName matches a backticked `pkg.Name` citation.
var citedGoName = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)")

// missingGoNames returns the `pkg.Name` citations in doc whose internal/pkg
// exists under root but declares no top-level Name, test files included.
// A citation of a package outside internal/ (`sync.Pool`) is not checked.
func missingGoNames(t *testing.T, root, doc string) []string {
	t.Helper()
	var missing []string
	declared := map[string]map[string]bool{}
	for _, m := range citedGoName.FindAllStringSubmatch(doc, -1) {
		pkg, name := m[1], m[2]
		names, ok := declared[pkg]
		if !ok {
			names = topLevelNames(t, filepath.Join(root, "internal", pkg))
			declared[pkg] = names
		}
		if names != nil && !names[name] {
			missing = append(missing, pkg+"."+name)
		}
	}
	return missing
}

// topLevelNames returns the names a package directory's Go files declare at
// top level (functions, types, variables and constants; not methods), or
// nil when the directory holds no Go files.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsCiteDeclaredGoNames checks every backticked `pkg.Name` that
// README.md, DESIGN.md, EXPERIMENTS.md and the verify skill cite against
// what internal/pkg declares, so a doc cannot keep citing a deleted type,
// function or test.
func TestDocsCiteDeclaredGoNames(t *testing.T) {
	const root = "../.."
	if got := missingGoNames(t, root, "`serve.Crasher`, `serve.ChaosProxy`, `dist.TestRingWithTimeoutStillConverges`, `sync.Pool`"); len(got) != 1 || got[0] != "serve.Crasher" {
		t.Fatalf("the check finds %q missing, want only serve.Crasher", got)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range missingGoNames(t, root, string(text)) {
			t.Errorf("%s cites `%s`, which its package does not declare", doc, name)
		}
	}
}

// citedPath matches a backticked repo path: `internal/...`, `cmd/...` or
// `examples/...`, with or without a leading ./ (`go run ./cmd/loadgen`).
var citedPath = regexp.MustCompile("`(?:[^`]*\\s)?(?:\\./)?((?:internal|cmd|examples)/[A-Za-z0-9_./-]*)")

// missingPaths returns the repo paths doc cites in backticks that do not
// exist under root.
func missingPaths(root, doc string) []string {
	var missing []string
	for _, m := range citedPath.FindAllStringSubmatch(doc, -1) {
		path := strings.TrimRight(m[1], "./")
		if _, err := os.Stat(filepath.Join(root, path)); err != nil {
			missing = append(missing, path)
		}
	}
	return missing
}

// TestDocsCiteExistingPaths checks every backticked internal/, cmd/ or
// examples/ path README.md, DESIGN.md, EXPERIMENTS.md and the verify skill
// cite, so a doc cannot keep pointing at a deleted package or command.
func TestDocsCiteExistingPaths(t *testing.T) {
	const root = "../.."
	if got := missingPaths(root, "`internal/serve`, `go run ./cmd/nashgate -backend`, `internal/nosuch`, `examples/quickstart/`"); len(got) != 1 || got[0] != "internal/nosuch" {
		t.Fatalf("the check finds %q missing, want only internal/nosuch", got)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range missingPaths(root, string(text)) {
			t.Errorf("%s cites `%s`, which does not exist", doc, path)
		}
	}
}

// usageFlag matches a flag named in a command's usage comment: a dash
// after a space, bracket, parenthesis or slash (-poll/-update-every).
var usageFlag = regexp.MustCompile(`(?:^|[\s\[(/])-([a-z][a-z0-9-]*)`)

// TestNashgateUsageNamesEveryFlag checks that cmd/nashgate's usage comment
// and its flag set name the same flags: each fs.* call's name literal
// against every -flag the package comment mentions.
func TestNashgateUsageNamesEveryFlag(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../nashgate/main.go", nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	usage := map[string]bool{}
	for _, m := range usageFlag.FindAllStringSubmatch(f.Doc.Text(), -1) {
		usage[m[1]] = true
	}
	defined := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				defined[strings.Trim(lit.Value, `"`)] = true
				break
			}
		}
		return true
	})
	if len(defined) < 30 {
		t.Fatalf("found %d flag definitions; the fs.* scan is broken", len(defined))
	}
	for name := range defined {
		if !usage[name] {
			t.Errorf("flag -%s is defined but the usage comment does not name it", name)
		}
	}
	for name := range usage {
		if !defined[name] {
			t.Errorf("the usage comment names -%s, which no flag defines", name)
		}
	}
}
