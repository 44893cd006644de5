package nfvmcast

import (
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

// The documents a newcomer reads cite tests and files by name. Those
// citations rot silently when the code moves: TestDocumentedNamesResolve
// resolves every name cited in a backtick span of the documents below.

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
)

func TestDocumentedNamesResolve(t *testing.T) {
	declared, baseNames := scanRepo(t)
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
