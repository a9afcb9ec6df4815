package autofeat

// Golden regression test: the discovery pipeline is deterministic by
// design (every random choice is seeded), so the exact ranking on a fixed
// lake is pinned here. A diff in this test means an algorithmic change —
// intentional changes must update the golden values alongside an
// explanation in DESIGN.md.

import (
	"testing"

	"autofeat/internal/core"
	"autofeat/internal/datagen"
	"autofeat/internal/discovery"
)

func TestGoldenRankingPinned(t *testing.T) {
	d, err := datagen.Generate(datagen.SmallSpecs()[0])
	if err != nil {
		t.Fatal(err)
	}
	g, err := discovery.BuildBenchmarkDRG(d.Tables, d.KFKs)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := core.New(g, d.Base.Name(), d.Label, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := disc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"tiny.key_00 -> tiny_t00.key_00 ; tiny_t00.key_02 -> tiny_t02.key_02 ; tiny_t02.fk_03 -> tiny_t03.key_03 (score 0.1714, 6 features)",
		"tiny.key_00 -> tiny_t00.key_00 ; tiny_t00.key_02 -> tiny_t02.key_02 (score 0.1302, 4 features)",
		"tiny.key_00 -> tiny_t00.key_00 (score 0.0907, 1 features)",
	}
	got := r.TopK(3)
	if len(got) != len(want) {
		t.Fatalf("top-3 has %d entries", len(got))
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("rank %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
