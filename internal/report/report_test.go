package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sitam/internal/core"
	"sitam/internal/sifault"
	"sitam/internal/sischedule"
	"sitam/internal/soc"
)

func optimizedResult(t *testing.T) *core.Result {
	t.Helper()
	s := soc.MustLoadBenchmark("d695")
	patterns, _, err := sifault.GenerateCtx(context.Background(), s, sifault.GenConfig{N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := core.BuildGroupsCtx(context.Background(), s, patterns, core.GroupingOptions{Parts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TAMOptimizationWith(context.Background(), s, 16, gr.Groups, sischedule.DefaultModel(), core.ParallelConfig{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoundTrip(t *testing.T) {
	res := optimizedResult(t)
	doc := FromResult(res)
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v\n%s", err, buf.String())
	}
	if got.TimeSOC != doc.TimeSOC || got.SOC != doc.SOC || len(got.Rails) != len(doc.Rails) {
		t.Errorf("round trip changed document: %+v vs %+v", got, doc)
	}
	a, b := got.ScheduleOf(), doc.ScheduleOf()
	for g, span := range b {
		if a[g] != span {
			t.Errorf("slot %s changed: %v vs %v", g, a[g], span)
		}
	}
}

func TestDocumentMatchesResult(t *testing.T) {
	res := optimizedResult(t)
	doc := FromResult(res)
	if doc.TimeIn != res.Breakdown.TimeIn || doc.TimeSI != res.Breakdown.TimeSI {
		t.Errorf("breakdown mismatch: %+v vs %+v", doc, res.Breakdown)
	}
	if doc.TotalWire != res.Architecture.TotalWidth() {
		t.Errorf("width mismatch")
	}
	if len(doc.Rails) != len(res.Architecture.Rails) {
		t.Fatalf("rail count mismatch")
	}
	for i, r := range doc.Rails {
		if r.Width != res.Architecture.Rails[i].Width {
			t.Errorf("rail %d width mismatch", i)
		}
	}
	if len(doc.Schedule) != len(res.Schedule.Slots) {
		t.Errorf("slot count mismatch")
	}
}

func TestReadRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"wrong schema":   `{"schema":99,"soc":"x","totalWidth":0,"timeIn":0,"timeSI":0,"timeSOC":0,"rails":[],"siSchedule":[]}`,
		"bad breakdown":  `{"schema":1,"soc":"x","totalWidth":0,"timeIn":1,"timeSI":1,"timeSOC":3,"rails":[],"siSchedule":[]}`,
		"unknown field":  `{"schema":1,"bogus":1}`,
		"zero width":     `{"schema":1,"soc":"x","totalWidth":0,"timeIn":0,"timeSI":0,"timeSOC":0,"rails":[{"index":0,"width":0,"cores":[1],"timeIn":0,"timeSI":0}],"siSchedule":[]}`,
		"width mismatch": `{"schema":1,"soc":"x","totalWidth":5,"timeIn":0,"timeSI":0,"timeSOC":0,"rails":[{"index":0,"width":2,"cores":[1],"timeIn":0,"timeSI":0}],"siSchedule":[]}`,
		"bad rail ref":   `{"schema":1,"soc":"x","totalWidth":2,"timeIn":0,"timeSI":0,"timeSOC":0,"rails":[{"index":0,"width":2,"cores":[1],"timeIn":0,"timeSI":0}],"siSchedule":[{"group":"g","patterns":1,"cores":[1],"rails":[7],"bottleneckRail":0,"begin":0,"end":1}]}`,
		"not json":       `hello`,
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %s", name, text)
		}
	}
}
