// Command unlinked lists the functions declared in non-test files under
// internal/ that no binary of this repository links, and fails on any that
// .github/unlinked-kept.txt does not name.
//
// It builds every command under cmd/ and the benchmark (bench/) with
// inlining off, so a function called anywhere keeps a symbol of its own,
// reads their repro/internal text symbols with `go tool nm`, and parses
// every non-test .go file under internal/ that the host's build context
// selects. A declared function, method or init with no symbol is unlinked.
// Run it from the root of the repository:
//
//	go run .github/unlinked.go        # fail on an unlinked name not kept
//	go run .github/unlinked.go -all   # list every unlinked name, kept or not
//
// Each kept line is `<name> <reason>`, the name as printed here (package
// path below repro/internal, then the function: `core.(*Explorer).Run`).
// A kept name that is linked, or no longer declared, fails too, so the list
// never outlives what it excuses.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
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
	if all {
		for _, name := range unlinked {
			fmt.Println(name)
		}
		fmt.Printf("%d of %d declared functions unlinked\n", len(unlinked), len(declared))
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
	for name := range kept {
		switch {
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
	fmt.Printf("%d declared functions: %d linked, %d unlinked and kept\n",
		len(declared), len(declared)-len(unlinked), len(unlinked))
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
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = pkg + "." + receiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
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
