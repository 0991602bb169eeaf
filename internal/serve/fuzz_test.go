package serve

import (
	"bytes"
	"reflect"
	"testing"

	"sitam/internal/core"
)

// FuzzSubmitRequest feeds arbitrary bytes through the POST /v1/jobs
// admission path: decodeRequest (the strict decoder handleSubmit uses)
// then Request.Validate with the default limits. Nothing may panic, and
// every accepted request must be normalized and inside every Limits
// bound — the promise that lets the scheduler trust an admitted job
// without re-checking it.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		// The chaos harness's request shapes.
		`{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":42}`,
		`{"soc":"p34392","wmax":32,"nr":1000,"groups":3,"seed":7}`,
		`{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":5,"chaos":{"sleepMS":30}}`,
		`{"soc":"d695","wmax":12,"nr":200,"groups":2,"seed":7,"chaos":{"panic":true}}`,
		// Every algorithm and the optional knobs.
		`{"soc":"d695","wmax":16,"nr":2000,"groups":3,"seed":7,"algo":"ils","kicks":50,"restarts":2}`,
		`{"soc":"d695","wmax":16,"nr":500,"groups":1,"seed":1,"algo":"baseline","workers":2,"budget":100,"timeoutMS":500}`,
		`{"source":"SocName tiny\nTotalModules 1\n","wmax":8,"nr":10,"groups":1,"seed":1}`,
		// Rejections: range, exclusivity, unknown algo and fields.
		`{"soc":"d695","wmax":0,"nr":200,"groups":2}`,
		`{"soc":"d695","source":"x","wmax":12,"nr":200,"groups":2}`,
		`{"soc":"d695","wmax":12,"nr":200,"groups":2,"algo":"magic"}`,
		`{"soc":"d695","wmax":12,"nr":200,"groups":2,"extra":1}`,
		`{"soc":"d695","wmax":12,"nr":-1,"groups":2,"restarts":-3}`,
		``,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	lim := DefaultLimits()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := req.Validate(lim); err != nil {
			return
		}
		switch req.Algo {
		case core.AlgoSI, core.AlgoBaseline, core.AlgoILS:
		default:
			t.Fatalf("accepted request has unnormalized algo %q", req.Algo)
		}
		if (req.SOC == "") == (req.Source == "") {
			t.Fatalf("accepted request sets soc=%q and %d source bytes", req.SOC, len(req.Source))
		}
		checks := []struct {
			name        string
			v, min, max int64
		}{
			{"wmax", int64(req.Wmax), 1, int64(lim.MaxWmax)},
			{"nr", int64(req.Nr), 1, int64(lim.MaxNr)},
			{"groups", int64(req.Parts), 1, int64(lim.MaxParts)},
			{"kicks", int64(req.Kicks), 0, int64(lim.MaxKicks)},
			{"restarts", int64(req.Restarts), 1, int64(lim.MaxRestarts)},
			{"source bytes", int64(len(req.Source)), 0, int64(lim.MaxSourceBytes)},
		}
		for _, c := range checks {
			if c.v < c.min || c.v > c.max {
				t.Fatalf("accepted request has %s %d outside [%d, %d]", c.name, c.v, c.min, c.max)
			}
		}
		if req.TimeoutMS < 0 || req.MaxEvals < 0 {
			t.Fatalf("accepted request has timeoutMS %d, budget %d", req.TimeoutMS, req.MaxEvals)
		}
		// Normalization is a fixed point: admitting the admitted
		// request again changes nothing.
		again := req
		if err := again.Validate(lim); err != nil {
			t.Fatalf("revalidating an accepted request: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("revalidation changed the request: %+v -> %+v", req, again)
		}
	})
}
