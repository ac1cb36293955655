package core

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/order"
)

// workGolden is one row of the work-counter golden table: what serial
// AdaMBE does on a general dataset (ascending order, default τ).
type workGolden struct {
	dataset                                string
	count                                  int64
	generated, maximal, nonMaximal, pruned int64
	setIntersections                       int64
	bitmaps, promotions                    int64
	widthHist                              [5]int64
}

// workGoldens is the checked-in work-counter table. Every column but
// setIntersections describes the enumeration tree and the bitmaps built
// for it, which a kernel change that only makes them faster leaves alone;
// setIntersections follows the definition in Metrics.SetIntersections. A
// change that means to alter the work done re-records this table and says
// so.
var workGoldens = []workGolden{
	{"UL", 637, 961, 637, 324, 493, 5998, 230, 230, [5]int64{230, 0, 0, 0, 0}},
	{"UF", 3723, 9716, 3723, 5993, 20083, 326393, 520, 520, [5]int64{520, 0, 0, 0, 0}},
	{"Mti", 25471, 47061, 25471, 21590, 221491, 1756340, 680, 680, [5]int64{661, 11, 6, 2, 0}},
	{"TM", 36550, 85422, 36550, 48872, 115732, 3682385, 2390, 2390, [5]int64{1501, 838, 51, 0, 0}},
	{"AM", 40244, 115814, 40244, 75570, 303260, 3793634, 9628, 9628, [5]int64{9613, 15, 0, 0, 0}},
	{"WC", 48718, 88746, 48718, 40028, 393108, 3529333, 769, 769, [5]int64{741, 14, 10, 4, 0}},
	{"YG", 55006, 140600, 55006, 85594, 430467, 7977032, 4671, 4671, [5]int64{4560, 111, 0, 0, 0}},
	{"SO", 66459, 127231, 66459, 60772, 529978, 4910363, 862, 862, [5]int64{832, 16, 9, 5, 0}},
	{"Pa", 70110, 228817, 70110, 158707, 796361, 9037582, 21248, 21248, [5]int64{21248, 0, 0, 0, 0}},
	{"IM", 98618, 265111, 98618, 166493, 909038, 13436677, 13587, 13587, [5]int64{13448, 139, 0, 0, 0}},
	{"BX", 186977, 429984, 186977, 243007, 956054, 25613745, 2571, 2571, [5]int64{2102, 459, 10, 0, 0}},
	{"GH", 350112, 845633, 350112, 495521, 1871552, 50010996, 2187, 2187, [5]int64{1510, 654, 23, 0, 0}},
}

// TestWorkCountersGolden runs serial AdaMBE at the default τ on every
// general dataset and requires its work counters to equal the golden
// table. Work counters do not drift with the machine, so this gate fires
// anywhere: a kernel that visits, prunes, promotes or intersects
// differently fails it even when it is faster.
func TestWorkCountersGolden(t *testing.T) {
	specs := datasets.General()
	if len(specs) != len(workGoldens) {
		t.Fatalf("%d general datasets, %d golden rows", len(specs), len(workGoldens))
	}
	for i, s := range specs {
		want := workGoldens[i]
		t.Run(s.Acronym, func(t *testing.T) {
			t.Parallel()
			if s.Acronym != want.dataset {
				t.Fatalf("golden row %d is %s, dataset is %s", i, want.dataset, s.Acronym)
			}
			g := order.Apply(s.Build(), order.DegreeAscending, 0)
			var m Metrics
			res, err := Enumerate(g, Options{Variant: Ada, Metrics: &m})
			if err != nil {
				t.Fatal(err)
			}
			got := workGolden{
				s.Acronym, res.Count,
				m.NodesGenerated, m.NodesMaximal, m.NodesNonMaximal, m.NodesPruned,
				m.SetIntersections,
				m.BitmapsCreated, m.BitPromotions,
				m.BitWidthHist,
			}
			if got != want {
				t.Errorf("work counters differ from the golden table\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}
