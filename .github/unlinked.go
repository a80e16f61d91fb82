// Command unlinked lists the functions declared in non-test files under
// internal/ that no binary of this repository links, and the struct fields
// declared there that no linked code reads, and fails on any that
// .github/unlinked-kept.txt does not name.
//
// It builds every command under cmd/ and the benchmark (bench/) with
// inlining off, so a function called anywhere keeps a symbol of its own,
// reads their repro/internal text symbols with `go tool nm`, and parses
// every non-test .go file under internal/ that the host's build context
// selects. A declared function, method or init with no symbol is unlinked.
//
// Fields are found with go/types: the non-test files of every package of
// the repository and of bench/ are type-checked from source (a test's read
// never counts), and every selector that picks a field is a read unless
// it only stores into the field — the
// left side of an assignment or of ++/--, a store into what the field
// holds (x.f[i] = v, x.f.g = v), or x.f = append(x.f, …) and clear(x.f).
// A read counts when it is in a command, in bench/, at package level or in
// a linked function, and so does comparing two structs or hashing one as a
// map key, for each of its fields. An unexported field declared in a
// non-test internal/ file with no read that counts is listed: state that
// the program writes, or not even that, and only a test looks at. An
// exported field is what a package hands its caller, which may read it
// through a copy, %v or reflection, none of them a selector; it is not
// listed.
//
// Run it from the root of the repository:
//
//	go run .github/unlinked.go        # fail on an unlinked name not kept
//	go run .github/unlinked.go -all   # list every unlinked name, kept or not
//
// Each kept line is `<name> <reason>`, the name as printed here (package
// path below repro/internal, then the function: `core.(*Explorer).Run`, or
// the type and the field: `sim.Station.completions`). A kept name that is
// linked (for a field: read by linked code), or no longer declared, fails
// too, so the list never outlives what it excuses.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
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

const (
	module   = "repro/internal/"
	keptFile = ".github/unlinked-kept.txt"
)

func main() {
	all := flag.Bool("all", false, "print every unlinked name, kept or not, and exit 0")
	flag.Parse()
	if err := run(*all); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run(all bool) error {
	linked, err := linkedSymbols()
	if err != nil {
		return err
	}
	declared, err := declaredFuncs("internal")
	if err != nil {
		return err
	}
	var unlinked []string
	for _, name := range declared {
		if !isLinked(name, linked) {
			unlinked = append(unlinked, name)
		}
	}
	fields, err := fieldReads(func(name string) bool { return isLinked(name, linked) })
	if err != nil {
		return err
	}
	var unread []string
	for name, read := range fields {
		if !read {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	if all {
		for _, name := range unlinked {
			fmt.Println(name)
		}
		for _, name := range unread {
			fmt.Println(name)
		}
		fmt.Printf("%d of %d declared functions unlinked, %d of %d declared fields unread by linked code\n",
			len(unlinked), len(declared), len(unread), len(fields))
		return nil
	}
	kept, err := readKept(keptFile)
	if err != nil {
		return err
	}
	isDeclared := make(map[string]bool, len(declared))
	for _, name := range declared {
		isDeclared[name] = true
	}
	var bad []string
	for _, name := range unlinked {
		if _, ok := kept[name]; !ok {
			bad = append(bad, name+": no binary links it and "+keptFile+" does not keep it")
		}
	}
	for _, name := range unread {
		if _, ok := kept[name]; !ok {
			bad = append(bad, name+": no linked code reads this field and "+keptFile+" does not keep it")
		}
	}
	for name := range kept {
		read, isField := fields[name]
		switch {
		case isField && read:
			bad = append(bad, name+": kept but read by linked code")
		case isField:
		case !isDeclared[name]:
			bad = append(bad, name+": kept but not declared")
		case isLinked(name, linked):
			bad = append(bad, name+": kept but linked")
		}
	}
	sort.Strings(bad)
	for _, line := range bad {
		fmt.Fprintln(os.Stderr, line)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d finding(s)", len(bad))
	}
	fmt.Printf("%d declared functions: %d linked, %d unlinked and kept; %d declared fields: %d read by linked code, %d kept\n",
		len(declared), len(declared)-len(unlinked), len(unlinked), len(fields), len(fields)-len(unread), len(unread))
	return nil
}

// linkedSymbols builds every command and the benchmark with inlining off
// and returns the repro/internal text symbols of all of them, each with its
// type arguments removed and the module prefix cut.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	builds := [][]string{
		{"go", "build", "-gcflags=all=-l", "-o", dir + "/", "./cmd/..."},
		{"go", "build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench"), "."},
	}
	for _, args := range builds {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", bin.Name(), err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "<addr> <type> <name>"; a generic instance's name holds
			// spaces inside its type arguments.
			_, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
			kind, name, _ := strings.Cut(rest, " ")
			if (kind != "T" && kind != "t") || !strings.HasPrefix(name, module) {
				continue
			}
			linked[stripTypeArgs(strings.TrimPrefix(name, module))] = true
		}
	}
	if len(linked) == 0 {
		return nil, fmt.Errorf("no %s symbol in any binary", module)
	}
	return linked, nil
}

// stripTypeArgs removes every bracketed type-argument list from a symbol:
// `x.(*heap[go.shape.int]).Push` becomes `x.(*heap).Push`.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// isLinked reports whether a declared name has a symbol. An init function
// is linked when any of its package's init symbols is.
func isLinked(name string, linked map[string]bool) bool {
	if pkg, ok := strings.CutSuffix(name, ".init"); ok {
		for sym := range linked {
			if sym == pkg+".init" || strings.HasPrefix(sym, pkg+".init.") {
				return true
			}
		}
		return false
	}
	return linked[name]
}

// declaredFuncs parses the non-test Go files under root that the host's
// build context selects and returns each function, method and init they
// declare, named as the linker names it.
func declaredFuncs(root string) ([]string, error) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), filepath.Base(path)); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" {
				continue
			}
			name := funcName(pkg, fn)
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
		return nil
	})
	sort.Strings(names)
	return names, err
}

// funcName names a function declared in package pkg (its path below
// repro/internal) as the linker does.
func funcName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return pkg + "." + receiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return pkg + "." + fn.Name.Name
}

// receiver renders a method's receiver type as the linker does: `T` or
// `(*T)`, without type parameters.
func receiver(expr ast.Expr) string {
	ptr := false
	if star, ok := expr.(*ast.StarExpr); ok {
		ptr, expr = true, star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// readKept reads the kept list: one `<name> <reason>` per line; blank lines
// and lines starting with # are skipped. A name without a reason is an error.
func readKept(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	kept := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		if _, dup := kept[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s kept twice", path, i+1, name)
		}
		kept[name] = reason
	}
	return kept, nil
}

// fieldReads type-checks the non-test files of every package of the
// repository and of bench/ and returns each unexported field declared in a
// non-test internal/ file, named `pkg.Type.field`, with whether code that
// counts (see the command's doc) reads it. A test's read never counts, so
// tests are not checked. linked says whether a function, named as
// declaredFuncs names it, is linked.
func fieldReads(linked func(string) bool) (map[string]bool, error) {
	fset := token.NewFileSet()
	imp := &sourceImporter{fset: fset, files: make(map[string][]*ast.File), checked: make(map[string]*checked)}
	for _, root := range []struct{ dir, path string }{{"internal", "repro/internal"}, {"cmd", "repro/cmd"}, {"bench", "repro/bench"}} {
		err := filepath.WalkDir(root.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != root.dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			files, err := parseDir(fset, path)
			if len(files) > 0 {
				imp.files[root.path+strings.TrimPrefix(filepath.ToSlash(path), root.dir)] = files
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	stdlib, err := exportData()
	if err != nil {
		return nil, err
	}
	imp.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := stdlib[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	// Fields are told apart by the position of their declaration.
	fields := make(map[token.Pos]string)
	read := make(map[string]bool)
	for path, files := range imp.files {
		pkg, ok := strings.CutPrefix(path, module)
		if !ok {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gen.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if !name.IsExported() && name.Name != "_" {
								fields[name.Pos()] = pkg + "." + ts.Name.Name + "." + name.Name
								read[fields[name.Pos()]] = false
							}
						}
					}
				}
			}
		}
	}

	for path, files := range imp.files {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
		info := imp.checked[path].info
		pkg, internal := strings.CutPrefix(path, module)
		for _, f := range files {
			var stack []ast.Node
			// inFunc is the function declaration being walked, and dead
			// says whether it is an internal one no binary links.
			var inFunc *ast.FuncDecl
			dead := false
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					if stack[len(stack)-1] == inFunc {
						inFunc, dead = nil, false
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				if d, ok := n.(*ast.FuncDecl); ok {
					inFunc, dead = d, internal && !linked(funcName(pkg, d))
				}
				if dead {
					return true
				}
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal && !storeOnly(stack, info) {
						if name, ok := fields[s.Obj().Pos()]; ok {
							read[name] = true
						}
					}
				case *ast.BinaryExpr:
					// Comparing two structs reads every field of both.
					if x.Op == token.EQL || x.Op == token.NEQ {
						readAll(info.TypeOf(x.X), fields, read)
					}
				case ast.Expr:
					// So does hashing one as a map key.
					if m, ok := info.TypeOf(x).(*types.Map); ok {
						readAll(m.Key(), fields, read)
					}
				}
				return true
			})
		}
	}
	return read, nil
}

// readAll marks every field of a struct type t (and of the structs and
// arrays it holds) as read.
func readAll(t types.Type, fields map[token.Pos]string, read map[string]bool) {
	switch u := t.(type) {
	case nil:
	case *types.Array:
		readAll(u.Elem(), fields, read)
	case *types.Named, *types.Alias:
		if _, ok := u.Underlying().(*types.Struct); ok {
			readAll(u.Underlying(), fields, read)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if name, ok := fields[f.Pos()]; ok && !read[name] {
				read[name] = true
				readAll(f.Type(), fields, read)
			}
		}
	}
}

// storeOnly reports whether the selector on top of stack (its ancestors
// below it) only stores into the field it picks: see the command's doc.
func storeOnly(stack []ast.Node, info *types.Info) bool {
	var n ast.Node = stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
		case *ast.IndexExpr:
			if p.X != n {
				return false
			}
		case *ast.SelectorExpr:
			if p.X != n {
				return false
			}
			if s, ok := info.Selections[p]; !ok || s.Kind() != types.FieldVal {
				return false // a method value or call reads the field
			}
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == n {
					return true
				}
			}
			return false
		case *ast.CallExpr:
			id, ok := p.Fun.(*ast.Ident)
			if !ok || len(p.Args) == 0 || p.Args[0] != n {
				return false
			}
			if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
				return false
			}
			if id.Name == "clear" {
				return true
			}
			return id.Name == "append" && assignsBack(stack[:i+1], n)
		case *ast.SliceExpr:
			return p.X == n && assignsBack(stack[:i+1], n)
		default:
			return false
		}
		n = stack[i]
	}
	return false
}

// assignsBack reports whether the expression on top of stack is the
// right side of an assignment to the expression x: x = append(x, …) or
// x = x[:k].
func assignsBack(stack []ast.Node, x ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	as, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, rhs := range as.Rhs {
		if rhs == stack[len(stack)-1] {
			return types.ExprString(as.Lhs[i]) == types.ExprString(x.(ast.Expr))
		}
	}
	return false
}

// parseDir parses the non-test Go files of dir that the host's build
// context selects.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
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
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// exportData returns the export data file of every package outside this
// repository that a package of it, or of bench/, imports.
func exportData() (map[string]string, error) {
	files := make(map[string]string)
	for _, args := range [][]string{
		{"go", "list", "-e", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "./..."},
		{"go", "list", "-C", "bench", "-e", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "./..."},
	} {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
		}
		for _, line := range bytes.Split(out, []byte("\n")) {
			path, file, _ := strings.Cut(string(line), " ")
			if file != "" && !strings.HasPrefix(path, "repro") {
				files[path] = file
			}
		}
	}
	return files, nil
}

// checked is one package type-checked from source, with what the checker
// recorded of its selections and expressions.
type checked struct {
	pkg  *types.Package
	info *types.Info
}

// sourceImporter type-checks this repository's packages from source, each
// once, and imports every other package from its export data.
type sourceImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File // by import path
	gc      types.Importer
	checked map[string]*checked
}

func (imp *sourceImporter) Import(path string) (*types.Package, error) {
	if c, ok := imp.checked[path]; ok {
		return c.pkg, nil
	}
	files, ok := imp.files[path]
	if !ok {
		return imp.gc.Import(path)
	}
	info := &types.Info{
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	imp.checked[path] = &checked{pkg, info}
	return pkg, nil
}
