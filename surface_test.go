package dragonfly_test

import (
	"fmt"
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
	"sync"
	"testing"
)

// surfaceAllowlist names the exported identifiers that no non-test code
// references but that stay exported anyway, each with its reason. Keys
// are "pkg.Name" for package-level identifiers and "pkg.Type.Method" for
// methods, where pkg is the package name.
var surfaceAllowlist = map[string]string{
	"sim.Accumulator.Variance": "completes the Welford accumulator whose m2 the dfly-snap/1 format carries",
	"sim.Network.ActiveEpoch":  "the only view of the governing epoch; core's timeline tests assert swaps through it",
}

// surfaceDynamic holds the method names the standard library calls
// through interfaces it declares but this module never names: fmt's
// Stringer and error formatting, errors.Unwrap, encoding/json and
// net/http.
var surfaceDynamic = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestExportedSurface keeps dead API out of the library. It type-checks
// every non-test package of the module and of perfbench/ (the
// benchmark's own module), once for the default build and once with the
// dflydebug tag, and fails on any exported package-level identifier or
// exported method outside main packages and perfbench/ that no non-test
// code references, unless surfaceAllowlist names it. It also fails on an
// allowlist entry whose name is gone or has gained a reference.
//
// A name is referenced when a non-test identifier or selector resolves
// to it. A method also counts when its receiver type implements an
// interface whose same-named method is referenced, or when the standard
// library calls it by name (surfaceDynamic).
//
//	go test -run '^TestExportedSurface$' -v .
//
// logs the exported count (package-level identifiers plus concrete
// methods), the size figure quoted next to .github/loc.sh.
func TestExportedSurface(t *testing.T) {
	declared := map[string]surfaceDecl{}
	referenced := map[string]bool{}
	for _, s := range surfaceScans(t) {
		s.collect(declared, referenced)
	}

	names := make([]string, 0, len(declared))
	count := 0
	for name, d := range declared {
		names = append(names, name)
		if !d.ifaceMethod {
			count++
		}
	}
	sort.Strings(names)
	for _, name := range names {
		_, allowed := surfaceAllowlist[name]
		switch {
		case !referenced[name] && !allowed:
			t.Errorf("%s: exported %s has no non-test reference; delete or unexport it, or allowlist it with a reason", declared[name].pos, name)
		case referenced[name] && allowed:
			t.Errorf("allowlisted %s now has a non-test reference; drop its allowlist entry", name)
		}
	}
	for name, reason := range surfaceAllowlist {
		if _, ok := declared[name]; !ok {
			t.Errorf("allowlisted %s is no longer declared; drop its allowlist entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlisted %s has no reason", name)
		}
	}
	t.Logf("exported: %d package-level identifiers and methods outside main packages and perfbench/ (%d interface methods also checked; %d allowlisted)",
		count, len(declared)-count, len(surfaceAllowlist))
}

// TestCollectorEventsHaveReaders keeps the engine from emitting events
// nothing consumes. Every method of metrics.Collector and of each
// metrics.*Observer interface must be declared, under both build
// contexts TestExportedSurface checks, by some non-test type that
// implements the interface and is neither metrics.Nop nor metrics.Multi,
// which only stub or fan an event out; perfbench's types count. An
// event without such a reader costs an emission site in internal/sim
// and feeds no result: delete it there and from the interface, or add
// the reader that needs it.
func TestCollectorEventsHaveReaders(t *testing.T) {
	unread := map[string]token.Position{}
	for _, s := range surfaceScans(t) {
		mp := s.pkgs["dragonfly/internal/metrics"]
		if mp == nil {
			t.Fatal("package dragonfly/internal/metrics was not type-checked")
		}
		for _, name := range mp.Scope().Names() {
			tn, ok := mp.Scope().Lookup(name).(*types.TypeName)
			if !ok || name != "Collector" && !strings.HasSuffix(name, "Observer") {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if !s.hasReader(mp, iface, m.Name()) {
					unread["metrics."+name+"."+m.Name()] = s.fset.Position(m.Pos())
				}
			}
		}
	}
	names := make([]string, 0, len(unread))
	for name := range unread {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: %s is declared by no non-test type but metrics.Nop and metrics.Multi; delete the event and its emission sites, or add its reader", unread[name], name)
	}
}

// hasReader reports whether a type of the scan other than metrics.Nop
// and metrics.Multi declares method name itself (promotion from an
// embedded Nop does not count) and implements iface.
func (s *surfaceScan) hasReader(metricsPkg *types.Package, iface *types.Interface, name string) bool {
	for _, p := range s.order {
		for _, tname := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(tname).(*types.TypeName)
			if !ok || tn.IsAlias() || p == metricsPkg && (tname == "Nop" || tname == "Multi") {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if named.Method(i).Name() == name &&
					(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
					return true
				}
			}
		}
	}
	return false
}

// surfaceScans type-checks every non-test package of the module and of
// perfbench/ once for the default build and once with the dflydebug
// tag, and shares the result among the tests of this file.
func surfaceScans(t *testing.T) []*surfaceScan {
	t.Helper()
	surfaceCache.once.Do(func() { surfaceCache.scans, surfaceCache.err = checkSurface() })
	if surfaceCache.err != nil {
		t.Fatal(surfaceCache.err)
	}
	return surfaceCache.scans
}

var surfaceCache struct {
	once  sync.Once
	scans []*surfaceScan
	err   error
}

func checkSurface() ([]*surfaceScan, error) {
	dirs, err := surfacePackageDirs()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	std := importer.ForCompiler(fset, "gc", nil)
	var scans []*surfaceScan
	for _, tags := range [][]string{nil, {"dflydebug"}} {
		s := &surfaceScan{
			fset: fset, files: files, std: std, dirs: dirs,
			pkgs: map[string]*types.Package{},
			info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		}
		s.ctx = build.Default
		s.ctx.BuildTags = tags
		for path := range dirs {
			if _, err := s.Import(path); err != nil {
				return nil, fmt.Errorf("tags %v: %w", tags, err)
			}
		}
		byName := map[string]string{} // the keys name packages by name
		for path, p := range s.pkgs {
			if other, ok := byName[p.Name()]; ok && p.Name() != "main" {
				return nil, fmt.Errorf("packages %s and %s share the name %s", path, other, p.Name())
			}
			byName[p.Name()] = path
		}
		scans = append(scans, s)
	}
	return scans, nil
}

// surfaceDecl is one checked exported name.
type surfaceDecl struct {
	pos         token.Position
	ifaceMethod bool
}

// surfacePackageDirs maps the import path of every Go package of the
// module and of perfbench/ to its directory.
func surfacePackageDirs() (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(path)
			imp := "dragonfly"
			if dir != "." {
				imp += "/" + filepath.ToSlash(dir)
			}
			dirs[imp] = dir
		}
		return nil
	})
	return dirs, err
}

// surfaceScan type-checks the module's packages under one build context.
type surfaceScan struct {
	ctx   build.Context
	fset  *token.FileSet
	files map[string]*ast.File // parsed once, shared by both contexts
	std   types.Importer
	dirs  map[string]string
	pkgs  map[string]*types.Package
	info  *types.Info
	order []*types.Package
}

func (s *surfaceScan) Import(path string) (*types.Package, error) {
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := s.ctx.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		file := filepath.Join(dir, name)
		f, ok := s.files[file]
		if !ok {
			if f, err = parser.ParseFile(s.fset, file, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.files[file] = f
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	s.order = append(s.order, p)
	return p, nil
}

// collect adds this context's checked names to declared and its
// referenced names to referenced.
func (s *surfaceScan) collect(declared map[string]surfaceDecl, referenced map[string]bool) {
	ifaceRefs := map[*types.Func]bool{} // referenced interface methods, any package
	for _, obj := range s.info.Uses {
		fn, ok := obj.(*types.Func)
		if ok {
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceRefs[fn] = true
			}
			obj = fn
		}
		if key, ok := s.key(obj); ok {
			referenced[key] = true
		}
	}
	for _, p := range s.order {
		checked := p.Name() != "main" && !strings.HasPrefix(p.Path(), "dragonfly/perfbench")
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if checked && obj.Exported() {
				declared[p.Name()+"."+name] = surfaceDecl{pos: s.fset.Position(obj.Pos())}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			// A method a referenced interface method dispatches to counts
			// as referenced, promoted methods included.
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				for fn := range ifaceRefs {
					iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
					if named.TypeParams().Len() > 0 || !types.Implements(t, iface) {
						continue
					}
					// Implements guarantees the lookup finds the method.
					m, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), fn.Name())
					if key, ok := s.key(m); ok {
						referenced[key] = true
					}
				}
			}
			var methods []*types.Func
			iface, isIface := named.Underlying().(*types.Interface)
			if isIface {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			} else {
				for i := 0; i < named.NumMethods(); i++ {
					methods = append(methods, named.Method(i))
				}
			}
			for _, m := range methods {
				if !m.Exported() {
					continue
				}
				key := p.Name() + "." + name + "." + m.Name()
				if checked {
					declared[key] = surfaceDecl{pos: s.fset.Position(m.Pos()), ifaceMethod: isIface}
				}
				if surfaceDynamic[m.Name()] {
					referenced[key] = true
				}
			}
		}
	}
}

// key names a package-level object or a method of a package-level type
// declared in this module; other objects have no key.
func (s *surfaceScan) key(obj types.Object) (string, bool) {
	p := obj.Pkg()
	if p == nil || s.pkgs[p.Path()] != p {
		return "", false
	}
	if obj.Parent() == p.Scope() {
		return p.Name() + "." + obj.Name(), true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return p.Name() + "." + named.Origin().Obj().Name() + "." + fn.Name(), true
}
