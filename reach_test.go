package nfvmcast

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported functions and methods of
// internal/ that no non-test code of the module, bench/ or examples/
// references, each with the reason it stays. TestInternalNamesReached
// fails on an unreached name missing here and on an entry that is now
// reached or gone, so a capability nothing drives shows up when its
// last caller goes.
var unreachedAllowed = map[string]string{
	"core.Admitter.Admitted":                 "the live sessions in admission order; oracle tests compare admitters by it",
	"core.CostModel.LinkCost":                "the paper's c_e(k); the Online_CP reference test prices trees with it",
	"engine.Engine.Planner":                  "accessor the engine tests read",
	"engine.Engine.RecoveryEnabled":          "accessor the recovery tests read",
	"graph.BellmanFord":                      "independent oracle the tests check Dijkstra against",
	"graph.DisjointSet.Connected":            "union-find query the graph tests use as a connectivity oracle",
	"graph.Graph.Degree":                     "adjacency query the graph and topology tests use",
	"graph.Graph.HasEdgeBetween":             "adjacency query the graph and topology tests use",
	"graph.Graph.Neighbors":                  "adjacency query the graph tests use",
	"graph.Graph.TotalWeight":                "property-tested against the edge sum",
	"graph.IsBridge":                         "single-edge bridge query the bridge tests check",
	"graph.NewDisjointSet":                   "union-find the graph tests use as a connectivity oracle",
	"graph.PrimMST":                          "heap Prim over a whole graph; the MST and closure tests check results against it",
	"graph.RootedTree.Depth":                 "tree accessor the rooted-tree tests read",
	"graph.RootedTree.DistToRoot":            "tree accessor the rooted-tree tests read",
	"graph.RootedTree.LCAAll":                "the paper's Algorithm 2 step-10 LCA fold; tests pin it",
	"graph.RootedTree.Nodes":                 "tree accessor the rooted-tree tests read",
	"graph.RootedTree.Parent":                "tree accessor the rooted-tree tests read",
	"graph.RootedTree.ParentEdge":            "tree accessor the rooted-tree tests read",
	"graph.RootedTree.PathWeight":            "tree accessor the rooted-tree tests read",
	"graph.RootedTree.Root":                  "tree accessor the rooted-tree tests read",
	"graph.RootedTree.SubtreeNodes":          "tree accessor the rooted-tree tests read",
	"graph.SameComponent":                    "connectivity query the traversal and topology tests use",
	"graph.ShortestPaths.Depth":              "tree accessor the shortest-path and reuse tests read",
	"graph.ShortestPaths.Parent":             "tree accessor the shortest-path and reuse tests read",
	"graph.SteinerTree.Nodes":                "node set the Steiner tests check trees by",
	"graph.indexedHeap.Contains":             "heap invariant the heap tests check",
	"multicast.PoissonConfig.OfferedErlangs": "the offered load λ/μ; the arrival tests pin it",
	"multicast.PoissonGenerator.Now":         "generator clock the arrival tests read",
	"multicast.TimedRequest.HoldingHours":    "session duration the arrival tests read",
	"nfv.Chain.At":                           "chain accessor the nfv tests read",
	"nfv.Chain.Equal":                        "chain comparison the request tests use",
	"nfv.Chain.Len":                          "chain accessor the tests read",
	"obs.AdmissionObs.Policy":                "label accessor the obs and engine tests read",
	"obs.AdmissionObs.ReconfiguredCount":     "counter accessor the reconfiguration tests read",
	"obs.AdmissionObs.Shard":                 "label accessor the obs tests read",
	"obs.Histogram.Count":                    "observation count the obs tests read",
	"obs.JSONLinesSink.Err":                  "first write error of the event sink; the sink tests read it",
	"obs.Registry.GaugeValues":               "gauge snapshot the obs and engine tests read",
	"obs.Registry.Histograms":                "histogram snapshot the obs tests read",
	"recover.Recoverer.Policy":               "accessor the recovery tests read",
	"recover.Report.Degraded":                "shed request IDs the recovery tests check",
	"recover.Report.Repaired":                "re-hosted count the recovery tests check",
	"scenario.Result.Transcript":             "the decision transcript tests diff when two runs disagree",
	"sdn.Controller.Table":                   "flow table the controller tests inspect",
	"sdn.Network.Clone":                      "deep copy the tests snapshot networks with; production fills a reused one through CloneInto",
	"sdn.Network.Name":                       "topology name the tests read",
	"testutil.Context":                       "test helper: a context bounded by the test's watchdog",
	"topology.DefaultTransitStub":            "transit-stub sizing the topology tests use",
	"topology.DefaultWaxman":                 "the paper's Waxman parameters; the topology tests build from them",
	"topology.Topology.NumEdges":             "size accessor the tests read",
	"topology.Topology.NumNodes":             "size accessor the tests read",
	"trace.ReadResults":                      "reads what Results.Write writes; the trace tests round-trip through it",
}

// TestInternalNamesReached type-checks every non-test package of the
// module, bench/ and examples/ from source and compares the exported
// functions and methods of internal/ that none of them references with
// unreachedAllowed. A method that satisfies an interface counts as
// referenced: it is reached through the interface.
func TestInternalNamesReached(t *testing.T) {
	imp := newModuleImporter(t)
	for path := range imp.dirs {
		if _, err := imp.ImportFrom(path, ".", 0); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, c := range imp.checked {
		for _, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, tv := range c.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, namedInterfaces(imp.checked)...)

	unreached := map[string]bool{}
	for path, c := range imp.checked {
		if !strings.HasPrefix(path, imp.module+"/internal/") {
			continue
		}
		pkg := c.pkg.Name()
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					unreached[pkg+"."+name] = true
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfiesInterface(named, m, ifaces) {
						unreached[pkg+"."+name+"."+m.Name()] = true
					}
				}
			}
		}
	}

	var missing, stale []string
	for name := range unreached {
		if _, ok := unreachedAllowed[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range unreachedAllowed {
		if !unreached[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("%s: exported, but no non-test code references it; call it, delete it, or add it to unreachedAllowed with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("%s: listed in unreachedAllowed, but it is referenced or no longer declared; drop the entry", name)
	}
}

// checkedPackage is one type-checked package of the module.
type checkedPackage struct {
	pkg  *types.Package
	info *types.Info
}

// moduleImporter type-checks the module's own packages from source,
// recording what each references, and hands every other import to the
// standard library's source importer.
type moduleImporter struct {
	fset    *token.FileSet
	module  string
	dirs    map[string]string // import path -> directory
	checked map[string]*checkedPackage
	std     types.ImporterFrom
}

func newModuleImporter(t *testing.T) *moduleImporter {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:    fset,
		module:  module,
		dirs:    map[string]string{},
		checked: map[string]*checkedPackage{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	// bench/ is its own module that imports this one through a replace
	// directive, so its import path is this module's path plus its
	// directory, like every other package here.
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		ip := module
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		m.dirs[ip] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	src, ok := m.dirs[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	if c, ok := m.checked[path]; ok {
		return c.pkg, nil
	}
	bp, err := build.Default.ImportDir(src, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(src, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = &checkedPackage{pkg: pkg, info: info}
	return pkg, nil
}

// namedInterfaces returns every interface with methods that the
// checked packages or anything they import declare at package level.
func namedInterfaces(checked map[string]*checkedPackage) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, c := range checked {
		visit(c.pkg)
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface
// that has method m.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
