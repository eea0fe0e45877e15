package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"khsim/internal/hafnium"
	"khsim/internal/sim"
	"khsim/internal/workload"
)

// ParseManifest reads the serving manifest format: a [serve] section with
// workload parameters and ordinary [vm ...] sections forming the node's
// partition plan. The plan must contain one super-secondary (the login /
// admission VM) and at least one secondary (the environment pool); the
// roles are discovered from the classes, not named explicitly:
//
//	[serve]
//	run_ms = 400
//	drain_ms = 200
//	ttl_ms = 50
//	warm_pool = 2
//	rates = 50, 500, 2000, 8000
//	job_short_us = 200
//	job_long_us = 2000
//	job_long_frac = 0.05
//	retry_us = 20
//	crash_mean_ms = 0          # 0 disables the crash campaign
//
//	[vm primary]
//	class = primary
//	...
//
// Comments start with '#'. The [vm ...] sections pass through verbatim to
// hafnium.ParseManifest.
func ParseManifest(text string) (Config, error) {
	cfg := DefaultConfig()
	cfg.Mix = workload.DefaultLambdaMix()
	var plan strings.Builder
	section := "" // "", "serve", or "vm"
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
				return Config{}, fmt.Errorf("serve: manifest line %d: unterminated section", ln+1)
			}
			parts := strings.Fields(strings.Trim(line, "[]"))
			switch {
			case len(parts) == 1 && parts[0] == "serve":
				section = "serve"
			case len(parts) == 2 && parts[0] == "vm":
				section = "vm"
				fmt.Fprintf(&plan, "\n%s\n", line)
			default:
				return Config{}, fmt.Errorf("serve: manifest line %d: expected [serve] or [vm <name>]", ln+1)
			}
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Config{}, fmt.Errorf("serve: manifest line %d: expected key = value", ln+1)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch section {
		case "vm":
			fmt.Fprintf(&plan, "%s = %s\n", key, val)
		case "serve":
			if err := cfg.serveKey(key, val); err != nil {
				return Config{}, fmt.Errorf("serve: manifest line %d: %w", ln+1, err)
			}
		default:
			return Config{}, fmt.Errorf("serve: manifest line %d: key %q outside any section", ln+1, key)
		}
	}
	cfg.NodePlan = plan.String()
	if cfg.NodePlan == "" {
		return Config{}, fmt.Errorf("serve: manifest has no [vm ...] sections")
	}
	nm, err := hafnium.ParseManifest(cfg.NodePlan)
	if err != nil {
		return Config{}, err
	}
	cfg.LoginVM, cfg.EnvVMs = "", nil
	for _, v := range nm.VMs {
		switch v.Class {
		case hafnium.SuperSecondary:
			cfg.LoginVM = v.Name
		case hafnium.Secondary:
			cfg.EnvVMs = append(cfg.EnvVMs, v.Name)
		}
	}
	if cfg.LoginVM == "" {
		return Config{}, fmt.Errorf("serve: plan needs a super-secondary login VM")
	}
	if len(cfg.EnvVMs) == 0 {
		return Config{}, fmt.Errorf("serve: plan needs at least one secondary environment VM")
	}
	if len(cfg.Rates) == 0 {
		return Config{}, fmt.Errorf("serve: manifest needs at least one arrival rate")
	}
	if cfg.WarmPool < 0 || cfg.WarmPool > len(cfg.EnvVMs) {
		return Config{}, fmt.Errorf("serve: warm_pool %d out of range for %d environments", cfg.WarmPool, len(cfg.EnvVMs))
	}
	return cfg, nil
}

func (c *Config) serveKey(key, val string) error {
	switch key {
	case "run_ms":
		return setMicros(&c.Run, key, val, 1000)
	case "drain_ms":
		return setMicros(&c.Drain, key, val, 1000)
	case "ttl_ms":
		return setMicros(&c.TTL, key, val, 1000)
	case "warm_pool":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("warm_pool: want a non-negative integer, got %q", val)
		}
		c.WarmPool = n
	case "retry_us":
		return setMicros(&c.RetryBackoff, key, val, 1)
	case "job_short_us":
		return setMicros(&c.Mix.MeanShort, key, val, 1)
	case "job_long_us":
		return setMicros(&c.Mix.MeanLong, key, val, 1)
	case "job_long_frac":
		v, ok := finite(val)
		if !ok || v < 0 || v > 1 {
			return fmt.Errorf("job_long_frac: want a fraction in [0,1], got %q", val)
		}
		c.Mix.LongFrac = v
	case "crash_mean_ms":
		v, ok := finite(val)
		if !ok || v < 0 {
			return fmt.Errorf("crash_mean_ms: want a non-negative number, got %q", val)
		}
		c.CrashMean = 0 // disables the crash campaign
		if v > 0 {
			return setMicros(&c.CrashMean, key, val, 1000)
		}
	case "rates":
		c.Rates = nil
		for _, f := range strings.Split(val, ",") {
			v, ok := finite(strings.TrimSpace(f))
			if !ok || v <= 0 {
				return fmt.Errorf("rates: want positive jobs/sec values, got %q", f)
			}
			c.Rates = append(c.Rates, v)
		}
	default:
		return fmt.Errorf("unknown [serve] key %q", key)
	}
	return nil
}

// setMicros sets *d to a positive manifest number of units, each unit
// microseconds long. The duration itself must be positive too: a tiny
// number would truncate to zero, and a huge one overflow.
func setMicros(d *sim.Duration, key, val string, unit float64) error {
	v, ok := finite(val)
	if !ok || v <= 0 {
		return fmt.Errorf("%s: want a positive number, got %q", key, val)
	}
	us, ok := sim.PositiveMicros(v * unit)
	if !ok {
		return fmt.Errorf("%s: %q is out of range", key, val)
	}
	*d = us
	return nil
}

// finite parses a manifest number, rejecting NaN and the infinities that
// ParseFloat accepts. NaN fails every comparison, so a range check alone
// lets it through; a NaN arrival rate schedules arrivals without bound.
func finite(val string) (float64, bool) {
	v, err := strconv.ParseFloat(val, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}
