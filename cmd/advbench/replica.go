package main

import (
	"math"
	"strings"
	"unicode"

	"repro/internal/defense"
	"repro/internal/eval"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Span names of one traced frame. The nn layer names follow DistNet's
// Net.Layers() order: <kind><index>.
var netLayerNames = []string{
	"nn.conv0", "nn.act1", "nn.conv2", "nn.act3", "nn.conv4",
	"nn.act5", "nn.flatten6", "nn.dense7", "nn.act8", "nn.dense9",
}

const (
	spanFrame   = "pipeline.frame"
	spanRender  = "scene.render"
	spanFilter  = "pipeline.filter"
	spanPredict = "regress.predict"
	spanControl = "sim.control"
)

// shortNames are the metric-name forms of registry names.
var shortNames = map[string]string{
	"None": "none", "FGSM": "fgsm", "CAP-Attack": "cap", "Auto-PGD": "apgd",
	"Median Blurring": "median", "Bit Depth": "bitdepth", "Randomization": "randomization", "DiffPIR": "diffpir",
}

// shortName is a registry name as it appears in span and metric names:
// from shortNames, or else lower case with only its letters and digits.
func shortName(s string) string {
	if n, ok := shortNames[s]; ok {
		return n
	}
	var out []rune
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			out = append(out, r)
		}
	}
	return string(out)
}

// stageSpans names the attack and defense spans of one cell's frames.
type stageSpans struct{ attack, defense string }

func cellSpans(id eval.CellID) stageSpans {
	return stageSpans{"attack." + shortName(id.Attack), "defense." + shortName(id.Defense)}
}

// isFrameStage reports whether a span name is one of a traced frame's
// stages or DistNet layers, whose self times tile the frame.
func isFrameStage(name string) bool {
	for _, p := range []string{"scene.", "pipeline.filter", "attack.", "defense.", "regress.", "nn.", "sim."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// tracedRun replays pipeline.Run from the layers' public calls, recording
// one span per stage and one per DistNet layer. It must return exactly
// what pipeline.Run returns for the same config: the benchmark checks the
// two with reflect.DeepEqual, and replica_test.go pins it over every
// registered runtime attack, defense and scenario. Keep it in step with
// internal/pipeline/pipeline.go. nextID hands out one span id per frame.
func tracedRun(cfg pipeline.Config, names stageSpans, tr *tracer, nextID func() int64) sim.Result {
	rng := xrand.New(cfg.Seed)
	var filterRNG *xrand.RNG
	if cfg.FrameFilter != nil {
		filterRNG = rng.Split()
	}
	renderer := scene.NewRenderer(rng, cfg.Drive)
	acc := sim.ACC{Cfg: sim.DefaultACCConfig()}
	world := sim.NewSimulation(cfg.InitGap, cfg.EgoSpeed, cfg.LeadSpeed, cfg.DT)
	layers := cfg.Reg.Net.Layers()

	res := sim.Result{MinGap: math.Inf(1), MinTTC: math.Inf(1)}
	steps := int(cfg.Duration / cfg.DT)

	var prevPerceived float64
	var havePrev bool
	filtered := 0.0
	const filterAlpha = 0.5

	var defBuf *imaging.Image

	for i := 0; i < steps; i++ {
		t := float64(i) * cfg.DT
		trueGap := world.State.Gap()
		if trueGap <= 0 {
			res.Collision = true
			break
		}
		id := nextID()
		fs := tr.begin(spanFrame, id, -1)

		s := tr.begin(spanRender, id, fs)
		var frame scene.DriveScene
		if cfg.LeadLateral != nil {
			frame = renderer.RenderAt(trueGap, cfg.LeadLateral(t))
		} else {
			frame = renderer.Render(trueGap)
		}
		tr.end(s)
		img := frame.Img
		if cfg.FrameFilter != nil {
			s = tr.begin(spanFilter, id, fs)
			cfg.FrameFilter(img, filterRNG)
			tr.end(s)
		}
		if cfg.Attacker != nil {
			s = tr.begin(names.attack, id, fs)
			img = cfg.Attacker.Apply(img, frame.LeadBox)
			tr.end(s)
		}
		if cfg.Defense != nil {
			s = tr.begin(names.defense, id, fs)
			if _, ok := cfg.Defense.(defense.IntoPreprocessor); ok {
				defBuf = imaging.EnsureLike(defBuf, img)
			}
			img = defense.Apply(cfg.Defense, defBuf, img)
			tr.end(s)
		}

		ps := tr.begin(spanPredict, id, fs)
		x := img.Tensor()
		for li, l := range layers {
			s = tr.begin(netLayerNames[li], id, ps)
			x = l.Forward(x, false)
			tr.end(s)
		}
		perceived := float64(x.Data()[0]) * cfg.Reg.MaxDist
		tr.end(ps)
		if perceived < 0 {
			perceived = 0
		}

		if !havePrev {
			filtered = perceived
			prevPerceived = perceived
			havePrev = true
		}
		filtered = filterAlpha*perceived + (1-filterAlpha)*filtered
		relSpeed := (filtered - prevPerceived) / cfg.DT
		relSpeed = min(max(relSpeed, -15), 15)
		prevPerceived = filtered

		s = tr.begin(spanControl, id, fs)
		egoAccel := acc.Accel(filtered, world.State.EgoSpeed, relSpeed)
		world.Step(egoAccel, cfg.LeadAccel(t))
		tr.end(s)

		res.Times = append(res.Times, t)
		res.TrueGaps = append(res.TrueGaps, trueGap)
		res.PerceivedGaps = append(res.PerceivedGaps, perceived)
		res.EgoSpeeds = append(res.EgoSpeeds, world.State.EgoSpeed)
		res.LeadSpeeds = append(res.LeadSpeeds, world.State.LeadSpeed)
		if trueGap < res.MinGap {
			res.MinGap = trueGap
		}
		if ttc := world.State.TTC(); ttc < res.MinTTC {
			res.MinTTC = ttc
		}
		tr.end(fs)
	}
	if world.State.Gap() <= 0 {
		res.Collision = true
		res.MinGap = 0
	}
	return res
}
