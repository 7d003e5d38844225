package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/xrand"
)

// artifactDigest is the SHA-256 of EncodeParams over artifactNet. Model
// artifacts persisted by one build are read by the next, so the gob wire
// format may not drift: a change here is a format break, not a test fix.
const artifactDigest = "155f38e516ff76fa01fd5831d5d1275618f5d6b8b77bbd7f19a0f51c3efe4436"

// artifactNet is a fixed Conv2D+Linear net. Its values are redrawn with
// Float32, which is exact integer arithmetic on every platform; the
// Xavier init goes through a multiply-add the compiler may fuse on some
// architectures.
func artifactNet(seed int64) *Sequential {
	rng := xrand.New(seed)
	net := NewSequential(
		NewConv2D(rng, 2, 3, 3, 1, 1),
		NewLeakyReLU(0.1),
		NewFlatten(),
		NewLinear(rng, 3*4*4, 5),
	)
	for _, p := range net.Params() {
		d := p.Value.Data()
		for i := range d {
			d[i] = rng.Float32() - 0.5
		}
		p.MarkMutated()
	}
	return net
}

func TestEncodeParamsDigest(t *testing.T) {
	net := artifactNet(26)
	data, err := EncodeParams(net.Params())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != artifactDigest {
		t.Fatalf("EncodeParams digest %s, want %s (%d bytes)", got, artifactDigest, len(data))
	}

	fresh := artifactNet(999)
	if err := DecodeParams(data, fresh.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range fresh.Params() {
		want := net.Params()[i].Value.Data()
		for j, v := range p.Value.Data() {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("param %s[%d]: decoded %v, want %v", p.Name, j, v, want[j])
			}
		}
	}
	again, err := EncodeParams(fresh.Params())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encoding the decoded params changed the bytes")
	}
}
