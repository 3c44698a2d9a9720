package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prpart/internal/design"
	"prpart/internal/resource"
)

// Load reads a design file for the command-line tools: an XML design
// description (".xml", with its constraints) or a JSON design (".json",
// no constraints). The extension is matched case-insensitively; any
// other extension is an error.
func Load(path string) (*design.Design, Constraints, error) {
	ext := strings.ToLower(filepath.Ext(path))
	if ext != ".xml" && ext != ".json" {
		return nil, Constraints{}, fmt.Errorf("unsupported input extension on %q (want .xml or .json)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, Constraints{}, err
	}
	defer f.Close()
	if ext == ".xml" {
		return ParseDesign(f)
	}
	d, err := design.DecodeJSON(f)
	return d, Constraints{}, err
}

// ParseBudget parses the command-line tools' -budget value, a resource
// budget written "clb,bram,dsp".
func ParseBudget(s string) (resource.Vector, error) {
	var clb, bram, dsp int
	if _, err := fmt.Sscanf(s, "%d,%d,%d", &clb, &bram, &dsp); err != nil {
		return resource.Vector{}, fmt.Errorf("bad -budget %q (want clb,bram,dsp): %v", s, err)
	}
	return resource.New(clb, bram, dsp), nil
}
