// Command linkcheck fails when the module declares, in a non-test file
// outside perfbench/ and scripts/, a function that no shipped binary
// links and that scripts/linkcheck/allowlist.txt does not name, or when
// an allowlist line names a function that is linked or gone. Run it
// from the module root: go run ./scripts/linkcheck
//
// The binaries are every package main outside scripts/ and the
// perfbench module, built with inlining off (-gcflags=all=-l) so every
// function a binary calls keeps its symbol; go tool nm lists them. A
// package main function must be in its own binary, any other in any.
// The allowlist format is described at its head. Exit status is 0 when
// clean, 1 when the check fails, 2 on allowlist, build or parse errors.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowlistPath = "scripts/linkcheck/allowlist.txt"

func main() {
	os.Exit(run(".", os.Stdout))
}

func run(root string, stdout io.Writer) int {
	allow, err := readAllowlist(filepath.Join(root, allowlistPath))
	var decls []decl
	var linked map[string]bool
	if err == nil {
		decls, linked, err = collect(root)
	}
	if err != nil {
		fmt.Fprintln(stdout, "linkcheck:", err)
		return 2
	}
	problems := check(decls, linked, allow)
	for _, p := range problems {
		fmt.Fprintln(stdout, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(stdout, "linkcheck: FAIL (%d problems)\n", len(problems))
		return 1
	}
	fmt.Fprintf(stdout, "linkcheck: ok (%d functions, %d allowlisted)\n", len(decls), len(allow))
	return 0
}

// A decl is one declared function: its name relative to the module
// root, the key its symbol has in the linked set, and where it is.
type decl struct{ name, key, pos string }

// readAllowlist maps each allowlisted symbol to its line number.
func readAllowlist(file string) (map[string]int, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case len(fields) < 3 || (fields[1] != "seam" && fields[1] != "api" && fields[1] != "tooling"):
			return nil, fmt.Errorf("%s:%d: want `symbol seam|api|tooling reason...`", file, n)
		case allow[fields[0]] != 0:
			return nil, fmt.Errorf("%s:%d: %s is listed twice", file, n, fields[0])
		default:
			allow[fields[0]] = n
		}
	}
	return allow, sc.Err()
}

// check returns, sorted, one line per unlinked function the allowlist
// does not name and one per stale allowlist line.
func check(decls []decl, linked map[string]bool, allow map[string]int) []string {
	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if line := allow[d.name]; !linked[d.key] && line == 0 {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary", d.pos, d.name))
		} else if linked[d.key] && line != 0 {
			problems = append(problems, fmt.Sprintf("%s:%d: %s is linked; drop the line", allowlistPath, line, d.name))
		}
	}
	for name, line := range allow {
		if !declared[name] {
			problems = append(problems, fmt.Sprintf("%s:%d: %s is not declared; drop the line", allowlistPath, line, name))
		}
	}
	sort.Strings(problems)
	return problems
}

// collect returns the module's declared functions and the set of
// symbols its binaries link. A package main symbol's key is prefixed
// with its binary's name.
func collect(root string) ([]decl, map[string]bool, error) {
	pkgs, err := goCmd(root, "list", "-f", `{{.ImportPath}}|{{.Module.Path}}|{{.Name}}|{{.Dir}}|{{join .GoFiles ","}}`, "./...")
	if err != nil {
		return nil, nil, err
	}
	var decls []decl
	var mains []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Split(line, "|")
		rel := strings.TrimPrefix(strings.TrimPrefix(f[0], f[1]), "/")
		if rel == "scripts" || strings.HasPrefix(rel, "scripts/") || f[4] == "" {
			continue
		}
		keyPkg := f[0]
		if f[2] == "main" {
			mains = append(mains, f[0])
			keyPkg = path.Base(f[0]) + " main"
		}
		for _, file := range strings.Split(f[4], ",") {
			af, err := parser.ParseFile(fset, filepath.Join(f[3], file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			for _, d := range af.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil && fn.Name.Name != "_" && fn.Name.Name != "init" {
					pos := fmt.Sprintf("%s/%s:%d", rel, file, fset.Position(fn.Pos()).Line)
					decls = append(decls, decl{rel + "." + funcName(fn), keyPkg + "." + funcName(fn), pos})
				}
			}
		}
	}

	tmp, err := os.MkdirTemp("", "linkcheck-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	// Given a directory, go build writes each package main there under
	// its import path's last element.
	if _, err := goCmd(root, append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, mains...)...); err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "perfbench", "go.mod")); err == nil {
		if _, err := goCmd(filepath.Join(root, "perfbench"), "build", "-gcflags=all=-l", "-o", filepath.Join(tmp, "perfbench"), "."); err != nil {
			return nil, nil, err
		}
	}
	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		nm, err := goCmd(root, "tool", "nm", filepath.Join(tmp, bin.Name()))
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(nm, "\n") {
			// Address, type, name; a name may itself hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				sym := stripTypeArgs(f[2])
				if strings.HasPrefix(sym, "main.") {
					sym = bin.Name() + " " + sym
				}
				linked[sym] = true
			}
		}
	}
	return decls, linked, nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}

// funcName renders fn as the linker names it, without type arguments:
// F, T.M or (*T).M.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	recv := stripTypeArgs(types.ExprString(fn.Recv.List[0].Type))
	if strings.HasPrefix(recv, "*") {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

var typeArgs = regexp.MustCompile(`\[[^][]*\]`)

// stripTypeArgs drops every bracketed type-argument list, innermost
// first, so pkg.(*Set[go.shape.[]int]).Add reads pkg.(*Set).Add.
func stripTypeArgs(sym string) string {
	for prev := ""; prev != sym; {
		prev, sym = sym, typeArgs.ReplaceAllString(sym, "")
	}
	return sym
}
