package nfvmcast

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents a newcomer reads cite tests, files and Go names by name.
// Those citations rot silently when the code moves:
// TestDocumentedNamesResolve resolves every test name, file path and
// pkg.Name[.Member] reference cited in a backtick span of the documents
// below.

// citingDocs are the documents whose backtick spans must resolve.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}

// writtenAtRunTime are file names the documents cite that the programs
// write at run time rather than keep in the repository.
var writtenAtRunTime = map[string]bool{
	"MANIFEST.json": true, // the daemon's substrate guard in its WAL directory
}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	// A span may wrap onto the next line of its paragraph.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// A test-function name, optionally followed by * to cite a prefix.
	testName = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)(\*?)`)
	// A span that is one relative path, optionally with a line range;
	// an absolute one (/metrics.json) is a URL path, not a file.
	repoPath = regexp.MustCompile(`^(?:\./)?([\w.][\w./-]*\.(?:go|json|txt|sh))(?::[0-9]+(?:[–-][0-9]+)?)?$`)
	// A qualified Go name, pkg.Name or pkg.Name.Member, optionally
	// followed by * to cite a prefix. The lookbehind is by hand: the
	// match must not continue a path, a file name or a longer selector.
	goName = regexp.MustCompile(`(^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(\*?)`)
)

// namePackages maps the package names a document may qualify a Go name
// with to the directory declaring them. recov is the import name
// internal/recover goes by.
var namePackages = func() map[string]string {
	m := map[string]string{"nfvmcast": ".", "recov": "internal/recover"}
	dirs, _ := filepath.Glob("internal/*")
	for _, d := range dirs {
		m[filepath.Base(d)] = d
	}
	return m
}()

func TestDocumentedNamesResolve(t *testing.T) {
	declared, baseNames := scanRepo(t)
	goNames := scanGoNames(t)
	metrics := benchmarkMetrics(t)
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString(string(raw), "")
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			if strings.Contains(span, "\n\n") {
				continue // an unpaired backtick, not a span
			}
			for _, n := range testName.FindAllStringSubmatch(span, -1) {
				if !resolvesTest(declared, n[1], n[2] == "*") {
					t.Errorf("%s: `%s` cites %s%s, which no _test.go file declares", doc, span, n[1], n[2])
				}
			}
			for _, n := range goName.FindAllStringSubmatch(span, -1) {
				pkg, name, member, prefix := n[2], n[3], n[4], n[5] == "*"
				dir, ok := namePackages[pkg]
				if !ok || metrics[pkg+"."+name] || fileSuffixes[name] {
					continue
				}
				if !goNames.resolves(dir, name, member, prefix) {
					t.Errorf("%s: `%s` cites %s, which %s does not declare",
						doc, span, strings.TrimPrefix(n[0], n[1]), dir)
				}
			}
			p := repoPath.FindStringSubmatch(strings.TrimSpace(span))
			if p == nil || strings.HasPrefix(filepath.Base(p[1]), "_") {
				continue
			}
			if !resolvesPath(doc, p[1], baseNames) {
				t.Errorf("%s: `%s` names no file in the repository", doc, span)
			}
		}
	}
}

// scanRepo returns the test functions every _test.go file declares and
// the base names of all files, skipping hidden directories.
func scanRepo(t *testing.T) (declared, baseNames map[string]bool) {
	t.Helper()
	declared, baseNames = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		baseNames[d.Name()] = true
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, baseNames
}

// resolvesTest reports whether name, or with prefix set some name it
// begins, is declared.
func resolvesTest(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// resolvesPath reports whether path names a file: from the repository
// root or the citing document's directory when it has a directory part,
// by base name anywhere in the repository when it has none.
func resolvesPath(doc, path string, baseNames map[string]bool) bool {
	if !strings.Contains(path, "/") {
		return baseNames[path] || writtenAtRunTime[path]
	}
	for _, p := range []string{path, filepath.Join(filepath.Dir(doc), path)} {
		if _, err := os.Stat(p); err == nil {
			return true
		}
	}
	return false
}

// fileSuffixes are the extensions a base name such as sim.go ends in;
// goName reads it as package sim and name go.
var fileSuffixes = map[string]bool{"go": true, "json": true, "jsonl": true, "md": true, "txt": true, "sh": true, "golden": true}

// benchmarkMetrics returns the metric names BENCHMARK.json declares;
// per-layer names such as core.plan_us look like Go names.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// declaredNames holds, per package directory, every top-level name and
// every method, field and interface method by its type, exported or
// not, from the package's own files, tests included.
type declaredNames struct {
	top     map[string]map[string]bool // dir -> name
	members map[string]map[string]bool // dir -> "Type.Member"
}

func (d declaredNames) resolves(dir, name, member string, prefix bool) bool {
	if member != "" {
		name += "." + member
	}
	set := d.top[dir]
	if member != "" {
		set = d.members[dir]
	}
	if !prefix {
		return set[name]
	}
	for n := range set {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// scanGoNames parses every Go file of the packages in namePackages.
func scanGoNames(t *testing.T) declaredNames {
	t.Helper()
	d := declaredNames{top: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	for _, dir := range namePackages {
		if d.top[dir] != nil {
			continue
		}
		top, members := map[string]bool{}, map[string]bool{}
		d.top[dir], d.members[dir] = top, members
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(f.Name.Name, "_test") {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						top[decl.Name.Name] = true
					} else if recv := receiverType(decl.Recv.List[0].Type); recv != "" {
						members[recv+"."+decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								top[n.Name] = true
							}
						case *ast.TypeSpec:
							top[spec.Name.Name] = true
							for _, m := range typeMembers(spec.Type) {
								members[spec.Name.Name+"."+m] = true
							}
						}
					}
				}
			}
		}
	}
	return d
}

// receiverType names a method's receiver type: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// typeMembers lists a struct's fields, embedded ones by type name, and
// an interface's methods.
func typeMembers(e ast.Expr) []string {
	var fields *ast.FieldList
	switch e := e.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			if name := receiverType(f.Type); name != "" {
				out = append(out, name)
			} else if sel, ok := f.Type.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			}
		}
	}
	return out
}
