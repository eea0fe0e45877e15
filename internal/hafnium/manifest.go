package hafnium

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// VMSpec describes one VM in the boot-time manifest.
type VMSpec struct {
	Name   string
	Class  Class
	VCPUs  int
	MemMB  int
	Secure bool // place the VM's memory in the TrustZone secure world
	// WorkingSetPages sizes the TLB-refill transient charged when the VM
	// is switched in after a flush; workload harnesses set it to the
	// benchmark's hot page count.
	WorkingSetPages int
	// Restart is the watchdog policy applied when the VM crashes.
	Restart RestartPolicy
	// MaxRestarts caps watchdog restarts (0 = unlimited while the policy
	// is RestartAlways).
	MaxRestarts int
	// Quarantine holds the VM out of service once the restart budget is
	// exhausted — or immediately on crash when Restart is RestartNever.
	Quarantine bool
	// RestartBackoffUS is the watchdog delay before the first restart, in
	// microseconds of simulated time; it doubles per consecutive restart.
	// 0 selects the default (100µs).
	RestartBackoffUS int
	// RestartFromSnapshot makes watchdog restarts rewind the VM's stage-2
	// table to the warm copy-on-write snapshot captured at boot instead of
	// rebuilding it cold. RAM is still scrubbed; only the translation
	// tables come back warm. Requires restart_policy = restart.
	RestartFromSnapshot bool
	// Standby builds the VM — RAM allocated, stage-2 mapped, guest
	// attached — but leaves it stopped at Boot. A standby slot is a live-
	// migration landing pad: AdmitVM imports a migrated image into it and
	// starts its VCPUs. Standby VMs must be secondaries.
	Standby bool
}

// Manifest is the static partition configuration Hafnium consumes during
// boot — the paper notes partitions "must be statically sized and
// configured during the early boot process".
type Manifest struct {
	VMs     []VMSpec
	Routing IRQRouting
	TLB     TLBPolicy
}

// Validate checks structural rules: exactly one primary, at most one
// super-secondary, sane sizes.
func (m *Manifest) Validate() error {
	primaries, supers := 0, 0
	names := map[string]bool{}
	for i, v := range m.VMs {
		if v.Name == "" {
			return fmt.Errorf("hafnium: VM %d has no name", i)
		}
		if names[v.Name] {
			return fmt.Errorf("hafnium: duplicate VM name %q", v.Name)
		}
		names[v.Name] = true
		if v.VCPUs <= 0 {
			return fmt.Errorf("hafnium: VM %q has %d vcpus", v.Name, v.VCPUs)
		}
		if v.MemMB <= 0 {
			return fmt.Errorf("hafnium: VM %q has %d MiB memory", v.Name, v.MemMB)
		}
		if v.MaxRestarts < 0 {
			return fmt.Errorf("hafnium: VM %q has negative max_restarts", v.Name)
		}
		if v.RestartBackoffUS < 0 {
			return fmt.Errorf("hafnium: VM %q has negative restart_backoff_us", v.Name)
		}
		if v.WorkingSetPages < 0 {
			return fmt.Errorf("hafnium: VM %q has negative working_set_pages", v.Name)
		}
		if v.Restart == RestartNever && (v.MaxRestarts != 0 || v.RestartBackoffUS != 0) {
			return fmt.Errorf("hafnium: VM %q sets restart limits without restart_policy = restart", v.Name)
		}
		if v.RestartFromSnapshot && v.Restart != RestartAlways {
			return fmt.Errorf("hafnium: VM %q sets restart_from_snapshot without restart_policy = restart", v.Name)
		}
		if v.Standby && v.Class != Secondary {
			return fmt.Errorf("hafnium: standby VM %q must be a secondary", v.Name)
		}
		switch v.Class {
		case Primary:
			primaries++
			if v.Secure {
				return fmt.Errorf("hafnium: primary VM %q cannot be secure-world", v.Name)
			}
			if v.Restart != RestartNever || v.Quarantine {
				return fmt.Errorf("hafnium: primary VM %q cannot have a crash policy (its failure is fatal)", v.Name)
			}
		case SuperSecondary:
			supers++
		}
	}
	if primaries != 1 {
		return fmt.Errorf("hafnium: manifest needs exactly one primary VM, has %d", primaries)
	}
	if supers > 1 {
		return fmt.Errorf("hafnium: manifest allows at most one super-secondary, has %d", supers)
	}
	return nil
}

// ParseManifest reads the small text format used by cmd/khsim, modelled
// on Hafnium's device-tree manifest:
//
//	routing = via-primary        # or: selective
//	tlb = vmid-tagged            # or: flush-all
//
//	[vm kitten]
//	class = primary              # primary | super-secondary | secondary
//	vcpus = 4
//	memory_mb = 256
//
//	[vm job0]
//	class = secondary
//	vcpus = 1
//	memory_mb = 512
//	secure = true
//
// Comments start with '#'; blank lines are ignored.
func ParseManifest(text string) (*Manifest, error) {
	m := &Manifest{}
	var cur *VMSpec
	flush := func() {
		if cur != nil {
			m.VMs = append(m.VMs, *cur)
			cur = nil
		}
	}
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("hafnium: manifest line %d: unterminated section", ln+1)
			}
			parts := strings.Fields(strings.Trim(line, "[]"))
			if len(parts) != 2 || parts[0] != "vm" {
				return nil, fmt.Errorf("hafnium: manifest line %d: expected [vm <name>]", ln+1)
			}
			flush()
			cur = &VMSpec{Name: parts[1], VCPUs: 1, MemMB: 64}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("hafnium: manifest line %d: expected key = value", ln+1)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if cur == nil {
			switch key {
			case "routing":
				switch val {
				case "via-primary":
					m.Routing = RouteViaPrimary
				case "selective":
					m.Routing = RouteSelective
				default:
					return nil, fmt.Errorf("hafnium: manifest line %d: unknown routing %q", ln+1, val)
				}
			case "tlb":
				switch val {
				case "vmid-tagged":
					m.TLB = TLBVMIDTagged
				case "flush-all":
					m.TLB = TLBFlushAll
				default:
					return nil, fmt.Errorf("hafnium: manifest line %d: unknown tlb policy %q", ln+1, val)
				}
			default:
				return nil, fmt.Errorf("hafnium: manifest line %d: unknown global key %q", ln+1, key)
			}
			continue
		}
		switch key {
		case "class":
			switch val {
			case "primary":
				cur.Class = Primary
			case "super-secondary":
				cur.Class = SuperSecondary
			case "secondary":
				cur.Class = Secondary
			default:
				return nil, fmt.Errorf("hafnium: manifest line %d: unknown class %q", ln+1, val)
			}
		case "vcpus":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: vcpus: %v", ln+1, err)
			}
			cur.VCPUs = n
		case "memory_mb":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: memory_mb: %v", ln+1, err)
			}
			cur.MemMB = n
		case "working_set_pages":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: working_set_pages: %v", ln+1, err)
			}
			cur.WorkingSetPages = n
		case "secure":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: secure: %v", ln+1, err)
			}
			cur.Secure = b
		case "restart_policy":
			switch val {
			case "none":
				cur.Restart = RestartNever
			case "restart":
				cur.Restart = RestartAlways
			default:
				return nil, fmt.Errorf("hafnium: manifest line %d: unknown restart_policy %q", ln+1, val)
			}
		case "max_restarts":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: max_restarts: %v", ln+1, err)
			}
			cur.MaxRestarts = n
		case "quarantine":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: quarantine: %v", ln+1, err)
			}
			cur.Quarantine = b
		case "restart_backoff_us":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: restart_backoff_us: %v", ln+1, err)
			}
			cur.RestartBackoffUS = n
		case "restart_from_snapshot":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: restart_from_snapshot: %v", ln+1, err)
			}
			cur.RestartFromSnapshot = b
		case "standby":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return nil, fmt.Errorf("hafnium: manifest line %d: standby: %v", ln+1, err)
			}
			cur.Standby = b
		default:
			return nil, fmt.Errorf("hafnium: manifest line %d: unknown VM key %q", ln+1, key)
		}
	}
	flush()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Format renders the manifest back to the text format, with VMs in
// declaration order and the primary first.
func (m *Manifest) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "routing = %s\ntlb = %s\n", m.Routing, m.TLB)
	vms := make([]VMSpec, len(m.VMs))
	copy(vms, m.VMs)
	sort.SliceStable(vms, func(i, j int) bool { return vms[i].Class < vms[j].Class })
	for _, v := range vms {
		fmt.Fprintf(&sb, "\n[vm %s]\nclass = %s\nvcpus = %d\nmemory_mb = %d\n", v.Name, v.Class, v.VCPUs, v.MemMB)
		if v.Secure {
			sb.WriteString("secure = true\n")
		}
		if v.WorkingSetPages != 0 {
			fmt.Fprintf(&sb, "working_set_pages = %d\n", v.WorkingSetPages)
		}
		if v.Restart != RestartNever {
			fmt.Fprintf(&sb, "restart_policy = %s\n", v.Restart)
		}
		if v.MaxRestarts != 0 {
			fmt.Fprintf(&sb, "max_restarts = %d\n", v.MaxRestarts)
		}
		if v.Quarantine {
			sb.WriteString("quarantine = true\n")
		}
		if v.RestartBackoffUS != 0 {
			fmt.Fprintf(&sb, "restart_backoff_us = %d\n", v.RestartBackoffUS)
		}
		if v.RestartFromSnapshot {
			sb.WriteString("restart_from_snapshot = true\n")
		}
		if v.Standby {
			sb.WriteString("standby = true\n")
		}
	}
	return sb.String()
}
