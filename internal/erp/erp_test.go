package erp

import (
	"testing"

	"tierdb/internal/core"
)

func TestProfilesMatchPaperTable1(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("profiles = %d, want 5", len(ps))
	}
	// The published Table I numbers.
	want := map[string][3]int{
		"BSEG":   {345, 50, 18},
		"ACDOCA": {338, 51, 19},
		"VBAP":   {340, 38, 9},
		"BKPF":   {128, 42, 16},
		"COEP":   {131, 22, 6},
	}
	for _, p := range ps {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if p.Attributes != w[0] || p.Filtered != w[1] || p.FilteredOften != w[2] {
			t.Errorf("%s = %d/%d/%d, want %d/%d/%d", p.Name,
				p.Attributes, p.Filtered, p.FilteredOften, w[0], w[1], w[2])
		}
	}
}

func TestGeneratedWorkloadMatchesProfileStats(t *testing.T) {
	for _, p := range Profiles() {
		w, err := Workload(p, 42)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		attrs, filtered, often := Stats(w)
		if attrs != p.Attributes {
			t.Errorf("%s: attributes = %d, want %d", p.Name, attrs, p.Attributes)
		}
		if filtered != p.Filtered {
			t.Errorf("%s: filtered = %d, want %d", p.Name, filtered, p.Filtered)
		}
		// The >=1% threshold is statistical; allow +-2 columns.
		if often < p.FilteredOften-2 || often > p.FilteredOften+2 {
			t.Errorf("%s: filtered often = %d, want ~%d", p.Name, often, p.FilteredOften)
		}
	}
}

func TestBSEGUnfilteredShareNear78Percent(t *testing.T) {
	w, err := Workload(Profiles()[0], 7)
	if err != nil {
		t.Fatal(err)
	}
	share := UnfilteredShare(w)
	if share < 0.70 || share > 0.85 {
		t.Errorf("unfiltered byte share = %.2f, want ~0.78", share)
	}
}

func TestBELNRDominatesWorkload(t *testing.T) {
	w, err := Workload(Profiles()[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	// BELNR (column 0) must be the largest filtered column and appear
	// in the performance order early.
	for i := 1; i < 50; i++ {
		if w.Columns[i].Size > w.Columns[0].Size {
			t.Errorf("filtered column %d larger than BELNR", i)
		}
	}
	order, err := core.PerformanceOrder(w, core.DefaultCostParams(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := -1
	for i, c := range order {
		if c == 0 {
			pos = i
		}
	}
	if pos == -1 {
		t.Fatal("BELNR missing from performance order")
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	a, err := Workload(Profiles()[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workload(Profiles()[0], 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			t.Fatalf("column %d differs across same-seed runs", i)
		}
	}
	c, err := Workload(Profiles()[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Columns {
		if a.Columns[i] != c.Columns[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestWorkloadRejectsBadProfile(t *testing.T) {
	if _, err := Workload(TableProfile{Attributes: 0}, 1); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := Workload(TableProfile{Attributes: 10, Filtered: 20}, 1); err == nil {
		t.Error("filtered > attributes accepted")
	}
}

func TestBSEGSchemaShape(t *testing.T) {
	s := BSEGSchema()
	if s.Len() != BSEGAttributes {
		t.Errorf("schema has %d fields, want %d", s.Len(), BSEGAttributes)
	}
	if s.Field(0).Name != "BELNR" {
		t.Error("BELNR not first")
	}
	if s.IndexOf("BUKRS") != 1 || s.IndexOf("GJAHR") != 2 {
		t.Error("key columns misplaced")
	}
}
