// Package design models a partially reconfigurable system the way the
// paper's §III-A describes it: a static region plus a set of reconfigurable
// modules, each with one or more mutually exclusive modes, and a list of
// valid configurations (one mode per module, with "mode 0" denoting that a
// module is absent from a configuration — the paper's §IV-D special case).
package design

import (
	"errors"
	"fmt"
	"strings"

	"prpart/internal/resource"
)

// Mode is one mutually exclusive implementation of a module, with its
// post-synthesis resource utilisation.
type Mode struct {
	// Name identifies the mode within its module, e.g. "Viterbi".
	Name string
	// Resources is the utilisation reported by synthesis.
	Resources resource.Vector
}

// Module is a processing unit of the system with one or more modes.
type Module struct {
	// Name identifies the module, e.g. "Decoder".
	Name string
	// Modes are the module's mutually exclusive implementations, in
	// declaration order. Mode indices used elsewhere are 1-based; index 0
	// is reserved for "module absent".
	Modes []Mode
}

// Configuration is one valid operating state: for every module, the
// 1-based index of the active mode, or 0 when the module is absent
// (the paper's "mode 0").
type Configuration struct {
	// Name optionally labels the configuration for reports.
	Name string
	// Modes[i] selects the active mode of module i (1-based), 0 = absent.
	Modes []int
}

// Design is a complete PR system description.
type Design struct {
	// Name labels the design in reports.
	Name string
	// Static is the resource requirement of the always-present static
	// logic (processor, ICAP controller, interconnect).
	Static resource.Vector
	// Modules are the reconfigurable modules.
	Modules []*Module
	// Configurations are the valid operating states.
	Configurations []Configuration
}

// ModeRef identifies one mode globally: module index and 1-based mode
// index within that module.
type ModeRef struct {
	Module int
	Mode   int
}

// String renders the reference using design-independent positional
// notation, e.g. "m0.2".
func (r ModeRef) String() string { return fmt.Sprintf("m%d.%d", r.Module, r.Mode) }

// ModeName returns the human-readable name "Module.Mode" of a reference.
func (d *Design) ModeName(r ModeRef) string {
	if r.Module < 0 || r.Module >= len(d.Modules) {
		return r.String()
	}
	mod := d.Modules[r.Module]
	if r.Mode < 1 || r.Mode > len(mod.Modes) {
		return r.String()
	}
	return mod.Name + "." + mod.Modes[r.Mode-1].Name
}

// ModeResources returns the utilisation of the referenced mode.
func (d *Design) ModeResources(r ModeRef) resource.Vector {
	return d.Modules[r.Module].Modes[r.Mode-1].Resources
}

// AllModes lists every (module, mode) pair in declaration order.
func (d *Design) AllModes() []ModeRef {
	var out []ModeRef
	for mi, m := range d.Modules {
		for k := range m.Modes {
			out = append(out, ModeRef{Module: mi, Mode: k + 1})
		}
	}
	return out
}

// UsedModes lists every mode that appears in at least one configuration,
// in declaration order. Modes that no configuration uses play no part in
// partitioning.
func (d *Design) UsedModes() []ModeRef {
	used := make(map[ModeRef]bool)
	for _, c := range d.Configurations {
		for mi, k := range c.Modes {
			if k != 0 {
				used[ModeRef{Module: mi, Mode: k}] = true
			}
		}
	}
	var out []ModeRef
	for _, r := range d.AllModes() {
		if used[r] {
			out = append(out, r)
		}
	}
	return out
}

// ConfigModes returns the mode references active in configuration ci.
func (d *Design) ConfigModes(ci int) []ModeRef {
	c := d.Configurations[ci]
	var out []ModeRef
	for mi, k := range c.Modes {
		if k != 0 {
			out = append(out, ModeRef{Module: mi, Mode: k})
		}
	}
	return out
}

// ConfigResources returns the total resources of configuration ci's active
// modes (static logic excluded).
func (d *Design) ConfigResources(ci int) resource.Vector {
	var v resource.Vector
	for _, r := range d.ConfigModes(ci) {
		v = v.Add(d.ModeResources(r))
	}
	return v
}

// LargestConfiguration returns the per-resource maximum over all
// configurations of the configuration's total requirement. Per the paper's
// §IV-C this is the minimum possible area for any implementation (the
// single-region lower bound), excluding static logic.
func (d *Design) LargestConfiguration() resource.Vector {
	var v resource.Vector
	for ci := range d.Configurations {
		v = v.Max(d.ConfigResources(ci))
	}
	return v
}

// ConfigName returns a printable name for configuration ci, synthesising
// "S -> F1 -> R3 -> ..." chains when the configuration is unnamed.
func (d *Design) ConfigName(ci int) string {
	c := d.Configurations[ci]
	if c.Name != "" {
		return c.Name
	}
	parts := []string{"S"}
	for mi, k := range c.Modes {
		if k == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s%d", shortName(d.Modules[mi].Name), k))
	}
	return strings.Join(parts, "->")
}

func shortName(s string) string {
	if s == "" {
		return "?"
	}
	return s[:1]
}

// Validate checks structural consistency: non-empty modules and
// configurations, mode indices in range, unique names, no duplicate
// configurations, and every configuration activating at least one mode.
func (d *Design) Validate() error {
	var errs []error
	if len(d.Modules) == 0 {
		errs = append(errs, errors.New("design has no modules"))
	}
	if len(d.Configurations) == 0 {
		errs = append(errs, errors.New("design has no configurations"))
	}
	if !d.Static.IsNonNegative() {
		errs = append(errs, fmt.Errorf("static resources %v negative", d.Static))
	}
	seenMod := make(map[string]bool)
	for mi, m := range d.Modules {
		if m.Name == "" {
			errs = append(errs, fmt.Errorf("module %d has no name", mi))
		}
		if seenMod[m.Name] {
			errs = append(errs, fmt.Errorf("duplicate module name %q", m.Name))
		}
		seenMod[m.Name] = true
		if len(m.Modes) == 0 {
			errs = append(errs, fmt.Errorf("module %q has no modes", m.Name))
		}
		seenMode := make(map[string]bool)
		for ki, md := range m.Modes {
			if md.Name == "" {
				errs = append(errs, fmt.Errorf("module %q mode %d has no name", m.Name, ki+1))
			}
			if seenMode[md.Name] {
				errs = append(errs, fmt.Errorf("module %q: duplicate mode name %q", m.Name, md.Name))
			}
			seenMode[md.Name] = true
			if !md.Resources.IsNonNegative() {
				errs = append(errs, fmt.Errorf("module %q mode %q: negative resources %v",
					m.Name, md.Name, md.Resources))
			}
		}
	}
	seenCfg := make(map[string]bool)
	for ci, c := range d.Configurations {
		if len(c.Modes) != len(d.Modules) {
			errs = append(errs, fmt.Errorf("configuration %d selects %d modules, design has %d",
				ci, len(c.Modes), len(d.Modules)))
			continue
		}
		active := 0
		for mi, k := range c.Modes {
			if k < 0 || k > len(d.Modules[mi].Modes) {
				errs = append(errs, fmt.Errorf("configuration %d: module %q mode index %d out of range [0,%d]",
					ci, d.Modules[mi].Name, k, len(d.Modules[mi].Modes)))
			}
			if k != 0 {
				active++
			}
		}
		if active == 0 {
			errs = append(errs, fmt.Errorf("configuration %d activates no modes", ci))
		}
		key := fmt.Sprint(c.Modes)
		if seenCfg[key] {
			errs = append(errs, fmt.Errorf("configuration %d duplicates an earlier configuration", ci))
		}
		seenCfg[key] = true
	}
	return errors.Join(errs...)
}

// FindMode resolves a human-readable "Module.Mode" (or "Module/Mode")
// name to a mode reference.
func (d *Design) FindMode(name string) (ModeRef, error) {
	sep := strings.IndexAny(name, "./")
	if sep < 0 {
		return ModeRef{}, fmt.Errorf("design: mode name %q not of the form Module.Mode", name)
	}
	modName, modeName := name[:sep], name[sep+1:]
	for mi, m := range d.Modules {
		if m.Name != modName {
			continue
		}
		for ki, md := range m.Modes {
			if md.Name == modeName {
				return ModeRef{Module: mi, Mode: ki + 1}, nil
			}
		}
		return ModeRef{}, fmt.Errorf("design: module %q has no mode %q", modName, modeName)
	}
	return ModeRef{}, fmt.Errorf("design: no module %q", modName)
}
