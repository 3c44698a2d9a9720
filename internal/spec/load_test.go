package spec

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prpart/internal/design"
	"prpart/internal/resource"
)

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, content []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var js bytes.Buffer
	if err := design.EncodeJSON(&js, design.PaperExample()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file    string
		content []byte
		design  string // want this design name, or
		err     string // an error containing this
		device  string // constraints carried (XML only)
	}{
		{file: "a.xml", content: []byte(sample), design: "demo", device: "FX70T"},
		{file: "b.XML", content: []byte(sample), design: "demo", device: "FX70T"},
		{file: "c.json", content: js.Bytes(), design: design.PaperExample().Name},
		{file: "d.Json", content: js.Bytes(), design: design.PaperExample().Name},
		{file: "e.txt", content: []byte(sample), err: "unsupported input extension"},
		{file: "noext", content: []byte(sample), err: "unsupported input extension"},
		{file: "f.json", content: []byte(sample), err: "invalid character"},
		{file: "g.xml", content: js.Bytes(), err: "spec: decoding XML"},
		{file: "missing.xml", err: "no such file"},
	} {
		path := filepath.Join(dir, tc.file)
		if tc.content != nil {
			path = write(tc.file, tc.content)
		}
		d, con, err := Load(path)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want one containing %q", tc.file, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.file, err)
		case d.Name != tc.design || con.Device != tc.device:
			t.Errorf("%s: design %q device %q, want %q %q", tc.file, d.Name, con.Device, tc.design, tc.device)
		}
	}
}

func TestParseBudget(t *testing.T) {
	v, err := ParseBudget("100,2,3")
	if err != nil || v != resource.New(100, 2, 3) {
		t.Errorf("ParseBudget = %v, %v", v, err)
	}
	for _, bad := range []string{"1,2", "nope", ""} {
		if _, err := ParseBudget(bad); err == nil || !strings.Contains(err.Error(), "bad -budget") {
			t.Errorf("ParseBudget(%q): err = %v, want a bad -budget error", bad, err)
		}
	}
}
