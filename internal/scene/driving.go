package scene

import (
	"math"

	"repro/internal/box"
	"repro/internal/imaging"
	"repro/internal/xrand"
)

// Camera is a pinhole model relating road-frame geometry to pixels: a
// point at forward distance z and height h above the road projects to
// image row cy + f·(camH-h)/z, and an object of width w spans f·w/z pixels.
type Camera struct {
	Focal   float64 // focal length in pixels
	Height  float64 // camera height above road in meters
	CenterY float64 // image row of the horizon
	CenterX float64 // image column of the optical axis
}

// RowFor returns the image row of a point on the road surface (height 0)
// at forward distance z.
func (c Camera) RowFor(z float64) float64 { return c.CenterY + c.Focal*c.Height/z }

// Span returns the pixel extent of a lateral size w at distance z.
func (c Camera) Span(w, z float64) float64 { return c.Focal * w / z }

// DriveConfig controls the driving-scene generator.
type DriveConfig struct {
	Size      int     // square image side in pixels
	Focal     float64 // pinhole focal length in pixels
	CamHeight float64 // camera height in meters
	CarWidth  float64 // lead vehicle width in meters
	CarHeight float64 // lead vehicle height in meters
	LaneWidth float64 // lane width in meters
	MinZ      float64 // closest generated lead distance
	MaxZ      float64 // farthest generated lead distance
	Noise     float64 // sensor noise std dev

	// BrightMin/BrightMax bound the sampled global illumination for
	// closed-loop renderers. A zero value selects that bound's daylight
	// default (0.85 / 1.05) independently; low-visibility scenario
	// variants narrow the range toward darkness.
	BrightMin float64
	BrightMax float64
}

// brightRange returns the illumination sampling bounds, applying the
// daylight default for each bound the config leaves unset. An inverted
// range collapses onto its upper bound rather than panicking.
func (cfg DriveConfig) brightRange() (lo, hi float64) {
	lo, hi = cfg.BrightMin, cfg.BrightMax
	if lo == 0 {
		lo = 0.85
	}
	if hi == 0 {
		hi = 1.05
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// DefaultDriveConfig returns the configuration used across the experiments.
func DefaultDriveConfig() DriveConfig {
	return DriveConfig{
		Size: 64, Focal: 150, CamHeight: 1.4,
		CarWidth: 1.85, CarHeight: 1.45, LaneWidth: 3.7,
		MinZ: 4, MaxZ: 90, Noise: 0.01,
	}
}

// Camera builds the pinhole camera implied by the config.
func (cfg DriveConfig) Camera() Camera {
	return Camera{
		Focal:   cfg.Focal,
		Height:  cfg.CamHeight,
		CenterY: float64(cfg.Size) * 0.42,
		CenterX: float64(cfg.Size) / 2,
	}
}

// DriveScene is one generated driving frame.
type DriveScene struct {
	Img      *imaging.Image
	Distance float64 // true relative distance to the lead vehicle (m)
	LeadBox  box.Box // lead vehicle bounding box in pixels
}

// carPalette is the set of lead-vehicle body colors.
var carPalette = []imaging.Color{
	{0.75, 0.75, 0.78}, // silver
	{0.15, 0.15, 0.17}, // black
	{0.55, 0.10, 0.10}, // red
	{0.16, 0.25, 0.50}, // blue
	{0.85, 0.85, 0.85}, // white
}

// GenerateDrive renders a driving frame with the lead vehicle at the given
// distance. Appearance randomness (lighting, car color, lateral offset,
// clutter) comes from rng; geometry follows the pinhole camera exactly.
func GenerateDrive(rng *xrand.RNG, cfg DriveConfig, dist float64) DriveScene {
	s := cfg.Size
	cam := cfg.Camera()
	img := imaging.NewRGB(s, s)

	bright := float32(rng.Uniform(0.8, 1.1))
	horizon := int(cam.CenterY)

	// Sky and off-road terrain.
	img.VerticalGradient(0, horizon, imaging.SkyBlue.Scale(bright), imaging.White.Scale(bright*0.9))
	img.VerticalGradient(horizon, s, imaging.Grass.Scale(bright*0.8), imaging.Grass.Scale(bright*0.55))

	// Road: trapezoid from the horizon to the bottom edge. Edges follow the
	// projection of the lane borders (±laneWidth) at decreasing distance.
	drawRoad(img, cam, cfg, bright)

	// Distant scenery.
	n := rng.Intn(3)
	for i := 0; i < n; i++ {
		h := 3 + rng.Intn(6)
		x := rng.Intn(s)
		img.FillCircle(float64(horizon-h/2), float64(x), float64(h)/2, imaging.Grass.Scale(float32(rng.Uniform(0.4, 0.8))))
	}

	// Lead vehicle.
	lateral := rng.Uniform(-0.35, 0.35) // meters off lane center
	body := carPalette[rng.Intn(len(carPalette))]
	lead := drawLeadCar(img, cam, cfg, dist, lateral, body, bright)

	if cfg.Noise > 0 {
		addSensorNoise(img, rng, cfg.Noise)
	}
	return DriveScene{Img: img, Distance: dist, LeadBox: lead}
}

// drawRoad paints the asphalt trapezoid, shoulder lines and dashed center
// markings, all following the camera projection.
func drawRoad(img *imaging.Image, cam Camera, cfg DriveConfig, bright float32) {
	s := img.H
	half := cfg.LaneWidth // road spans one lane each side of center
	for y := int(cam.CenterY) + 1; y < s; y++ {
		// Invert RowFor: z = f*camH / (y - cy).
		z := cam.Focal * cam.Height / (float64(y) - cam.CenterY)
		halfSpan := cam.Span(half, z)
		x0 := int(cam.CenterX - halfSpan)
		x1 := int(cam.CenterX + halfSpan)
		shade := bright * float32(0.9+0.1*math.Min(1, z/50))
		img.FillRect(y, x0, y+1, x1, imaging.Asphalt.Scale(shade))
		// Shoulder lines.
		img.FillRect(y, x0, y+1, x0+1, imaging.White.Scale(bright))
		img.FillRect(y, x1-1, y+1, x1, imaging.White.Scale(bright))
		// Dashed center line: dashes every 4 m of road distance.
		if math.Mod(z, 8) < 4 {
			cx := int(cam.CenterX)
			img.FillRect(y, cx, y+1, cx+1, imaging.Yellow.Scale(bright))
		}
	}
}

// drawLeadCar renders the rear view of the lead vehicle at distance z and
// returns its bounding box. The box is the ground-truth region CAP-Attack
// confines its patch to.
func drawLeadCar(img *imaging.Image, cam Camera, cfg DriveConfig, z, lateral float64, body imaging.Color, bright float32) box.Box {
	w := cam.Span(cfg.CarWidth, z)
	h := cam.Span(cfg.CarHeight, z)
	bottom := cam.RowFor(z)
	cx := cam.CenterX + cam.Span(lateral, z)

	b := box.New(cx-w/2, bottom-h, cx+w/2, bottom)
	clipped := b.Clip(float64(img.W), float64(img.H))
	if clipped.Empty() || w < 1 {
		// Too far to resolve: a single dark pixel at the road position.
		if bottom >= 1 && bottom < float64(img.H) {
			img.FillRect(int(bottom)-1, int(cx), int(bottom), int(cx)+1, imaging.DarkGray)
		}
		return clipped
	}

	x0, y0, x1, y1 := int(b.X0), int(b.Y0), int(b.X1), int(b.Y1)

	// Body.
	img.FillRect(y0, x0, y1, x1, body.Scale(bright))
	// Rear window (top third, dark).
	winY1 := y0 + max(1, (y1-y0)/3)
	img.FillRect(y0+max(1, (y1-y0)/10), x0+max(1, (x1-x0)/8), winY1, x1-max(1, (x1-x0)/8), imaging.DarkGray.Scale(bright))
	// Tail lights at the lower corners.
	lw := max(1, (x1-x0)/6)
	lh := max(1, (y1-y0)/6)
	ly := y1 - 2*lh
	img.FillRect(ly, x0+1, ly+lh, x0+1+lw, imaging.Color{0.9, 0.1, 0.1}.Scale(bright))
	img.FillRect(ly, x1-1-lw, ly+lh, x1-1, imaging.Color{0.9, 0.1, 0.1}.Scale(bright))
	// Tires touching the road.
	th := max(1, (y1-y0)/8)
	img.FillRect(y1-th, x0, y1, x0+lw, imaging.Black)
	img.FillRect(y1-th, x1-lw, y1, x1, imaging.Black)
	// Shadow under the car.
	if y1 < img.H {
		img.FillRect(y1, x0, min(img.H, y1+1), x1, imaging.Asphalt.Scale(0.6))
	}
	return clipped
}

// Renderer renders driving frames with frozen appearance (car color,
// lateral offset, lighting), so closed-loop simulations see a temporally
// coherent world where only geometry changes frame to frame.
type Renderer struct {
	Cfg     DriveConfig
	rng     *xrand.RNG
	body    imaging.Color
	lateral float64
	bright  float32
}

// NewRenderer samples the frozen appearance once from rng.
func NewRenderer(rng *xrand.RNG, cfg DriveConfig) *Renderer {
	lo, hi := cfg.brightRange()
	return &Renderer{
		Cfg:     cfg,
		rng:     rng,
		body:    carPalette[rng.Intn(len(carPalette))],
		lateral: rng.Uniform(-0.3, 0.3),
		bright:  float32(rng.Uniform(lo, hi)),
	}
}

// Render draws the frame for the given true lead distance.
func (r *Renderer) Render(dist float64) DriveScene {
	return generateDriveFixed(r.rng, r.Cfg, dist, r.lateral, r.body, r.bright)
}

// RenderAt draws the frame with an explicit lateral offset (meters off
// lane center), overriding the frozen one; cut-in scenarios script the
// lead vehicle sliding into the ego lane this way.
func (r *Renderer) RenderAt(dist, lateral float64) DriveScene {
	return generateDriveFixed(r.rng, r.Cfg, dist, lateral, r.body, r.bright)
}

// generateDriveFixed renders a frame with externally fixed appearance.
func generateDriveFixed(rng *xrand.RNG, cfg DriveConfig, dist, lateral float64, body imaging.Color, bright float32) DriveScene {
	s := cfg.Size
	cam := cfg.Camera()
	img := imaging.NewRGB(s, s)
	horizon := int(cam.CenterY)
	img.VerticalGradient(0, horizon, imaging.SkyBlue.Scale(bright), imaging.White.Scale(bright*0.9))
	img.VerticalGradient(horizon, s, imaging.Grass.Scale(bright*0.8), imaging.Grass.Scale(bright*0.55))
	drawRoad(img, cam, cfg, bright)
	lead := drawLeadCar(img, cam, cfg, dist, lateral, body, bright)
	if cfg.Noise > 0 {
		addSensorNoise(img, rng, cfg.Noise)
	}
	return DriveScene{Img: img, Distance: dist, LeadBox: lead}
}
