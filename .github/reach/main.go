// Command reach fails when production code links into no program.
//
// It builds every cmd/*, examples/* and the bench module without inlining
// (-gcflags=all=-l, so each called function keeps its own symbol), lists
// their beaconsec text symbols with go tool nm, and matches them against
// every func declared in the non-test files of internal/, the packages
// the programs link. A declaration that no program links must be on allow.txt
// beside this file, one symbol per line with a "#" reason naming the test
// or fault path that keeps it. An allow-list entry that is linked, no
// longer declared or has no reason is reported too. The exit status is
// non-zero when anything is reported.
//
// Run it from the repository root:
//
//	go run ./.github/reach
//
// The directory starts with a dot, so ./... patterns (build, vet, test,
// staticcheck) skip it and it ships in no program.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = ".github/reach/allow.txt"

func main() {
	problems, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Printf("reach: %d problem(s); delete the function, or list it in %s with the test or fault path that keeps it\n", len(problems), allowFile)
		os.Exit(1)
	}
}

func check() ([]string, error) {
	linked, err := linkedSymbols()
	if err != nil {
		return nil, err
	}
	declared, err := declaredFuncs()
	if err != nil {
		return nil, err
	}
	allow, bad, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	problems := bad
	isDeclared := make(map[string]bool, len(declared))
	for _, sym := range declared {
		isDeclared[sym] = true
		if !linked[sym] && allow[sym] == "" {
			problems = append(problems, "unlinked: "+sym)
		}
	}
	for _, sym := range sortedKeys(allow) {
		switch {
		case !isDeclared[sym]:
			problems = append(problems, "allowed but not declared: "+sym)
		case linked[sym]:
			problems = append(problems, "allowed but linked: "+sym)
		}
	}
	fmt.Printf("reach: %d linked beaconsec functions, %d declared in internal/, %d allowed unlinked\n",
		len(linked), len(declared), len(allow))
	return problems, nil
}

// linkedSymbols builds every program without inlining and returns the
// beaconsec text symbols they link, with type arguments stripped so a
// generic counts as linked when any instantiation is.
func linkedSymbols() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := dir + string(filepath.Separator)
	if _, err := output("", "go", "build", "-gcflags=all=-l", "-o", out, "./cmd/...", "./examples/..."); err != nil {
		return nil, err
	}
	if _, err := output("bench", "go", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "bench"), "."); err != nil {
		return nil, err
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, b := range bins {
		nm, err := output("", "go", "tool", "nm", filepath.Join(dir, b.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// address, type, then a name that may hold spaces
			// (go.shape.struct { ... }).
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && f[1] == "T" && strings.HasPrefix(f[2], "beaconsec") {
				linked[stripTypeArgs(f[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// stripTypeArgs removes every bracketed type-argument list, so
// "p.(*codec[go.shape.uint8]).Marshal" becomes "p.(*codec).Marshal".
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

// declaredFuncs returns the symbol of every func declared in the non-test
// files of internal/, spelled as go tool nm prints it. init functions are
// skipped: they link with their package.
func declaredFuncs() ([]string, error) {
	js, err := output("", "go", "list", "-json", "./internal/...")
	if err != nil {
		return nil, err
	}
	var syms []string
	dec := json.NewDecoder(bytes.NewReader(js))
	for dec.More() {
		var pkg struct {
			ImportPath string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&pkg); err != nil {
			return nil, err
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				syms = append(syms, pkg.ImportPath+"."+recvPrefix(fn)+fn.Name.Name)
			}
		}
	}
	sort.Strings(syms)
	return syms, nil
}

// recvPrefix spells a method's receiver as the linker does: "T." for a
// value receiver and "(*T)." for a pointer one, type parameters dropped.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star, ok := t.(*ast.StarExpr)
	if ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")."
	}
	return name + "."
}

// readAllow parses the allow list: "symbol # reason" per line, blank lines
// and lines starting with "#" ignored. Entries without a reason or listed
// twice come back as problems.
func readAllow(path string) (map[string]string, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	allow := make(map[string]string)
	var bad []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		switch {
		case reason == "":
			bad = append(bad, fmt.Sprintf("%s:%d: no reason for %s", path, i+1, sym))
		case allow[sym] != "":
			bad = append(bad, fmt.Sprintf("%s:%d: %s listed twice", path, i+1, sym))
		default:
			allow[sym] = reason
		}
	}
	return allow, bad, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// output runs a command in dir and returns its standard output, or an
// error carrying its standard error.
func output(dir string, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}
