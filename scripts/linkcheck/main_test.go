package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture writes a two-package module: cmd/app links lib.Used (and,
// through it, a method of a generic type) but not lib.Unused or its
// own helper. A test file's function must never be reported.
func fixture(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"cmd/app/main.go": `package main

import "fixture/lib"

func main() { println(lib.Used()) }

func helper() {}
`,
		"lib/lib.go": `package lib

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func Used() int {
	var b Box[int]
	return b.Get()
}

func Unused() {}
`,
		"lib/lib_test.go": "package lib\n\nfunc testOnly() {}\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runWith(t *testing.T, root, allowlist string) (int, string) {
	t.Helper()
	path := filepath.Join(root, allowlistPath)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(allowlist), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run(root, &out)
	return code, out.String()
}

func TestLinkcheck(t *testing.T) {
	root := fixture(t)
	const allowed = "# kept on purpose\nlib.Unused seam shared by other packages' tests\ncmd/app.helper api documented\n"

	t.Run("unlinked and not allowlisted fails", func(t *testing.T) {
		code, out := runWith(t, root, "# nothing allowed\n")
		if code != 1 {
			t.Fatalf("exit %d, want 1:\n%s", code, out)
		}
		// Only these two: lib.Used, Box.Get and main are linked, and
		// testOnly lives in a test file.
		for _, want := range []string{
			"lib/lib.go:12: lib.Unused is linked by no binary",
			"cmd/app/main.go:7: cmd/app.helper is linked by no binary",
			"linkcheck: FAIL (2 problems)",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("allowlisted passes", func(t *testing.T) {
		if code, out := runWith(t, root, allowed); code != 0 {
			t.Fatalf("exit %d, want 0:\n%s", code, out)
		}
	})

	t.Run("stale allowlist line fails", func(t *testing.T) {
		code, out := runWith(t, root, allowed+"lib.Used seam now linked\nlib.Gone tooling deleted since\n")
		if code != 1 {
			t.Fatalf("exit %d, want 1:\n%s", code, out)
		}
		for _, want := range []string{
			allowlistPath + ":4: lib.Used is linked; drop the line",
			allowlistPath + ":5: lib.Gone is not declared; drop the line",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("line without a known category is an error", func(t *testing.T) {
		if code, out := runWith(t, root, "lib.Unused because\n"); code != 2 {
			t.Fatalf("exit %d, want 2:\n%s", code, out)
		}
	})
}
