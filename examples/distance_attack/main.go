// Distance attack in the control loop: trains DistNet, then runs the
// closed-loop ACC scenario (lead vehicle brakes mid-run) clean, under the
// runtime CAP-Attack, and under CAP-Attack with a median-blur defense —
// showing how the Table I distance errors translate into a collision.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	advp "repro"
)

func main() {
	if err := run(context.Background(), os.Stdout, advp.Quick()); err != nil {
		log.Fatal(err)
	}
}

// run trains DistNet at the preset's set size and epochs, then drives the
// three closed-loop runs, writing the report to w.
func run(ctx context.Context, w io.Writer, p advp.Preset) error {
	rng := advp.NewRNG(9)
	cfg := advp.DefaultDriveConfig()
	drives := advp.GenerateDriveSet(rng.Split(), cfg, p.DriveTrain, cfg.MinZ, cfg.MaxZ)

	reg := advp.NewRegressor(rng.Split(), cfg.Size)
	rc := advp.DefaultRegressorTrainConfig()
	rc.Epochs = p.RegEpochs
	reg.Train(drives, rc)
	fmt.Fprintf(w, "regressor trained, RMSE=%.2f m over training distribution\n", reg.RMSE(drives))

	scenario := func(name string, attacked bool, defended bool) {
		pc := advp.DefaultPipelineConfig(reg)
		pc.Drive = cfg
		if attacked {
			capAtt := advp.NewCAP(advp.DefaultCAPConfig())
			obj := &advp.RegressionObjective{Reg: reg.Clone()}
			pc.Attacker = attackerFunc(func(img *advp.Image, leadBox advp.Box) *advp.Image {
				return capAtt.Apply(obj, img, leadBox)
			})
		}
		if defended {
			pc.Defense = advp.NewMedianBlur()
		}
		res := advp.RunPipeline(pc)
		fmt.Fprintf(w, "%-26s min gap %6.2f m   min TTC %6.2fs   collision=%v\n",
			name, res.MinGap, capTTC(res.MinTTC), res.Collision)
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nclosed-loop ACC, lead brakes at t=4s for 2s:")
	scenario("clean", false, false)
	scenario("CAP-Attack", true, false)
	scenario("CAP-Attack + MedianBlur", true, true)
	return nil
}

func capTTC(v float64) float64 {
	if v > 999 {
		return 999
	}
	return v
}

// attackerFunc adapts a closure to the pipeline Attacker interface via the
// facade's re-exported types.
type attackerFunc func(img *advp.Image, leadBox advp.Box) *advp.Image

func (f attackerFunc) Apply(img *advp.Image, leadBox advp.Box) *advp.Image {
	return f(img, leadBox)
}
