package harness

import (
	"fmt"
	"testing"

	"khsim/internal/sim"
	"khsim/internal/workload"
)

func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	res, _, err := SelfishExperiment(1, sim.FromSeconds(5))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(FormatSelfish(res))
	for _, spec := range []workload.Spec{workload.GUPS(), workload.NASLU(), workload.Stream()} {
		for _, cfg := range Configs {
			r, err := RunWorkload(cfg, spec, 99)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Printf("%-8s %s\n", cfg, r)
		}
	}
}
