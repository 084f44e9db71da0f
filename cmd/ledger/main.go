// Command ledger reports what the repository keeps that no caller uses,
// in two reports that share one allowlist (allowlist.txt beside this file):
//
//   - func: every non-test function under internal/ that no binary links.
//     Every main package of every module in the tree (the root module and
//     any nested one, bench/ here) is built with inlining off, and each
//     declared function is looked up in the binaries' `go tool nm` text
//     symbols. A generic function or a method of a generic type counts as
//     linked through any of its instantiations.
//   - field: every exported field of a *Config, *Options or *Spec struct in
//     internal/ps, internal/core and internal/dataflow that no non-test code
//     sets. Fields are resolved with go/types, so a field set through an
//     alias counts and two fields of one name in two structs do not mix. A
//     write does not count when it only fills a default (it sits under an
//     `if` that tests the same field, or reads the field itself) or only
//     forwards another field that is itself never set.
//
// Each allowlist line is `func|field NAME REASON`. ledger exits 1 on any
// finding the allowlist does not name, on any entry that no longer matches a
// finding, and on any entry without a reason. Run it from the repository root:
//
//	go run ./cmd/ledger
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// configPkgs are the packages whose configuration structs are ratcheted.
var configPkgs = []string{"internal/ps", "internal/core", "internal/dataflow"}

func main() {
	problems, err := run(".", "cmd/ledger/allowlist.txt", configPkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("ledger: every unlinked function and unset field is on the allowlist")
}

// run checks the tree at root against the allowlist file and returns one
// line per problem: an unlisted finding or a stale entry.
func run(root, allowFile string, cfgPkgs []string) ([]string, error) {
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}
	mods, err := modules(root)
	if err != nil {
		return nil, err
	}
	prog, err := load(mods)
	if err != nil {
		return nil, err
	}
	findings := map[string]string{} // "kind name" → detail
	funcs, err := unlinkedFuncs(prog, mods)
	if err != nil {
		return nil, err
	}
	for k, v := range funcs {
		findings[k] = v
	}
	for k, v := range unsetFields(prog, cfgPkgs) {
		findings[k] = v
	}
	var problems []string
	for k, detail := range findings {
		if _, ok := allow[k]; !ok {
			problems = append(problems, fmt.Sprintf("unlisted %s (%s)", k, detail))
		}
	}
	for k, reason := range allow {
		if _, ok := findings[k]; !ok {
			problems = append(problems, "stale allowlist entry "+k)
		} else if reason == "" {
			problems = append(problems, "allowlist entry without a reason "+k)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// readAllowlist maps "kind name" to its reason. Blank lines and lines
// starting with # are skipped.
func readAllowlist(file string) (map[string]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) < 2 || (f[0] != "func" && f[0] != "field") {
			return nil, fmt.Errorf("%s:%d: want `func|field NAME REASON`", file, i+1)
		}
		reason := ""
		if len(f) == 3 {
			reason = strings.TrimSpace(f[2])
		}
		allow[f[0]+" "+f[1]] = reason
	}
	return allow, nil
}

// module is one go.mod directory of the tree.
type module struct{ dir, path string }

// modules finds the root module and every nested one, skipping testdata and
// hidden directories.
func modules(root string) ([]module, error) {
	var mods []module
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if d.IsDir() || d.Name() != "go.mod" {
			return nil
		}
		out, err := goCmd(filepath.Dir(p), "list", "-m", "-f", "{{.Path}}")
		if err != nil {
			return err
		}
		m := module{filepath.Dir(p), strings.TrimSpace(string(out))}
		if m.dir == filepath.Clean(root) {
			mods = append([]module{m}, mods...)
		} else {
			mods = append(mods, m)
		}
		return nil
	})
	if err == nil && (len(mods) == 0 || mods[0].dir != filepath.Clean(root)) {
		err = fmt.Errorf("no go.mod at %s", root)
	}
	return mods, err
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out, nil
}

// pkg is one non-standard package, type-checked from source.
type pkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
	files                   []*ast.File
	info                    *types.Info
}

// program is every package the modules' packages depend on, the root
// module path, and the one FileSet their positions live in.
type program struct {
	fset   *token.FileSet
	root   string
	pkgs   []*pkg // non-standard, in dependency order
	byPath map[string]*types.Package
}

// load type-checks every package of every module from source, in dependency
// order, against export data for the standard library. A package two modules
// share (the root's internal packages, which bench/ imports) is checked once,
// so a field is one *types.Var wherever it is used.
func load(mods []module) (*program, error) {
	prog := &program{fset: token.NewFileSet(), root: mods[0].path, byPath: map[string]*types.Package{}}
	exports := map[string]string{} // standard-library export data
	seen := map[string]bool{}
	for _, m := range mods {
		out, err := goCmd(m.dir, "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(pkg)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				prog.pkgs = append(prog.pkgs, p)
			}
		}
	}
	std := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := prog.byPath[path]; ok {
			return tp, nil
		}
		return std.Import(path)
	})
	for _, p := range prog.pkgs {
		for _, f := range p.GoFiles {
			af, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, af)
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, prog.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		prog.byPath[p.ImportPath] = tp
	}
	return prog, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unlinkedFuncs builds every main package of every module and returns the
// functions declared under ROOT/internal/ that none of the binaries links,
// keyed "func NAME" with NAME relative to the root module path.
func unlinkedFuncs(prog *program, mods []module) (map[string]string, error) {
	bin, err := os.MkdirTemp("", "ledger")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	linked := map[string]bool{}
	for i, m := range mods {
		out, err := goCmd(m.dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
		if err != nil {
			return nil, err
		}
		mains := strings.Fields(string(out))
		if len(mains) == 0 {
			continue
		}
		dst := filepath.Join(bin, fmt.Sprint(i)) + string(filepath.Separator)
		// Inlining is off so that every called function keeps its symbol.
		args := append([]string{"build", "-gcflags=all=-l", "-o", dst}, mains...)
		if _, err := goCmd(m.dir, args...); err != nil {
			return nil, err
		}
		exes, err := os.ReadDir(dst)
		if err != nil {
			return nil, err
		}
		for _, e := range exes {
			out, err := goCmd(m.dir, "tool", "nm", filepath.Join(dst, e.Name()))
			if err != nil {
				return nil, err
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
				if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
					linked[symbolKey(f[2])] = true
				}
			}
		}
	}
	internal := prog.root + "/internal/"
	found := map[string]string{}
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.ImportPath, internal) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := p.ImportPath + "." + fd.Name.Name
				if fd.Recv != nil {
					key = p.ImportPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				if linked[key] {
					continue
				}
				start, end := prog.fset.Position(fd.Pos()), prog.fset.Position(fd.End())
				found["func "+strings.TrimPrefix(key, prog.root+"/")] = fmt.Sprintf("%s:%d, %d lines, linked by no binary",
					filepath.Base(start.Filename), start.Line, end.Line-start.Line+1)
			}
		}
	}
	return found, nil
}

// symbolKey turns a linker symbol into the name its declaration has: the
// balanced [...] of an instantiation and the (*T) of a pointer receiver go,
// and a closure or wrapper counts as its enclosing function.
// "p.(*RDD[go.shape.[]int64]).Map.func1" → "p.RDD.Map".
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	// The package path may hold dots of its own; the declared name starts
	// after its last slash.
	slash := strings.LastIndexByte(s, '/') + 1
	parts := strings.Split(s[slash:], ".")
	for i, p := range parts {
		if i > 1 && (numbered(p, "func") || numbered(p, "gowrap") || numbered(p, "deferwrap")) {
			parts = parts[:i]
			break
		}
	}
	return s[:slash] + strings.Join(parts, ".")
}

// numbered reports whether s is prefix followed by a decimal number, the
// compiler's name for a closure or a go/defer wrapper.
func numbered(s, prefix string) bool {
	n, ok := strings.CutPrefix(s, prefix)
	return ok && n != "" && strings.Trim(n, "0123456789") == ""
}

// recvName is a receiver's base type name: T for T, *T, T[K] and *T[K, V].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

// write is one non-test write of a tracked field.
type write struct {
	from *types.Var // the tracked field its value only forwards, if any
	dflt bool       // a default fill: does not count as a caller setting it
}

// unsetFields returns the exported fields of the configuration structs in
// cfgPkgs (directories relative to the root) that no non-test code sets,
// keyed "field PKG.Type.Field" with PKG the package's last element.
func unsetFields(prog *program, cfgPkgs []string) map[string]string {
	tracked := map[*types.Var]string{}
	for _, dir := range cfgPkgs {
		tp := prog.byPath[prog.root+"/"+dir]
		if tp == nil {
			continue
		}
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					tracked[f] = tp.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	writes := map[*types.Var][]write{}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			collectWrites(f, p.info, tracked, writes)
		}
	}
	// A field is set when one of its writes is a real one, or forwards a
	// field that is set: iterate to the fixpoint.
	set := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for v, ws := range writes {
			if set[v] {
				continue
			}
			for _, w := range ws {
				if !w.dflt && (w.from == nil || set[w.from]) {
					set[v], changed = true, true
					break
				}
			}
		}
	}
	found := map[string]string{}
	for v, name := range tracked {
		if set[v] {
			continue
		}
		pos := prog.fset.Position(v.Pos())
		detail := "set by no non-test code"
		if len(writes[v]) > 0 {
			detail = "only defaulted or forwarded from an unset field"
		}
		found["field "+name] = fmt.Sprintf("%s:%d, %s", filepath.Base(pos.Filename), pos.Line, detail)
	}
	return found
}

// collectWrites records every write of a tracked field in f: a composite
// literal key (or every field of an unkeyed literal), an assignment, an
// increment, or an address taken.
func collectWrites(f *ast.File, info *types.Info, tracked map[*types.Var]string, writes map[*types.Var][]write) {
	var guards []ast.Expr // conditions of the enclosing if statements
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if v := s.Obj().(*types.Var); tracked[v] != "" {
				return v
			}
		}
		return nil
	}
	reads := func(e ast.Expr, v *types.Var) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && info.Selections[sel] != nil && info.Selections[sel].Obj() == v {
				hit = true
			}
			return !hit
		})
		return hit
	}
	record := func(v *types.Var, rhs ast.Expr) {
		var w write
		if rhs != nil {
			w.from = field(rhs)
			w.dflt = reads(rhs, v)
		}
		for _, g := range guards {
			w.dflt = w.dflt || reads(g, v)
		}
		writes[v] = append(writes[v], w)
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			ast.Inspect(n.Cond, visit)
			guards = append(guards, n.Cond)
			ast.Inspect(n.Body, visit)
			guards = guards[:len(guards)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			return false
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && tracked[v] != "" {
							record(v, kv.Value)
						}
					}
				} else if v := st.Field(i); tracked[v] != "" {
					record(v, el)
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if v := field(l); v != nil {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
						rhs = n.Rhs[i]
					}
					record(v, rhs)
				}
			}
		case *ast.IncDecStmt:
			if v := field(n.X); v != nil {
				record(v, nil)
			}
		case *ast.UnaryExpr:
			if v := field(n.X); v != nil && n.Op == token.AND {
				record(v, nil)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
