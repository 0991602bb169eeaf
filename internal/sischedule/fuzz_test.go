package sischedule

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sitam/internal/soc"
	"sitam/internal/tam"
	"sitam/internal/wrapper"
)

// nodeCountdownCtx makes Err fire after n polls, driving the exact
// scheduler's every-256-nodes interruption check deterministically.
type nodeCountdownCtx struct {
	context.Context
	n int
}

func (c *nodeCountdownCtx) Err() error {
	if c.n <= 0 {
		return context.DeadlineExceeded
	}
	c.n--
	return nil
}

// FuzzExactSchedule decodes an arbitrary byte string into a tiny SOC,
// architecture and group set and checks the exact scheduler's contract
// on it: it never panics, Algorithm 1 never beats it, and a search cut
// short at any node budget reports an achievable makespan — an upper
// bound that never undercuts the true optimum.
func FuzzExactSchedule(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 3, 4, 0, 7, 2, 9, 1, 5, 8, 255, 0, 1, 2, 3})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		take := func() int {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return int(b)
		}

		nCores := 2 + take()%5
		s := &soc.SOC{Name: "fuzz", BusWidth: 4 + take()%8}
		for id := 1; id <= nCores; id++ {
			s.CoreList = append(s.CoreList, &soc.Core{
				ID: id, Inputs: 1 + take()%4, Outputs: 1 + take()%6,
				ScanChains: []int{1 + take()%8}, Patterns: 1 + take()%9,
			})
		}
		if s.Validate() != nil {
			t.Skip()
		}
		tt, err := wrapper.NewTimeTable(s, 8)
		if err != nil {
			t.Skip()
		}

		nRails := 1 + take()%3
		if nRails > nCores {
			nRails = nCores
		}
		railCores := make([][]int, nRails)
		for id := 1; id <= nCores; id++ {
			r := (take() + id) % nRails
			railCores[r] = append(railCores[r], id)
		}
		a := tam.New(s, tt)
		for _, cores := range railCores {
			if len(cores) > 0 {
				a.AddRail(cores, 1+take()%3)
			}
		}
		if a.Validate() != nil {
			t.Skip()
		}

		nGroups := 1 + take()%4
		var groups []*Group
		for g := 0; g < nGroups; g++ {
			mask := take()
			var cores []int
			for id := 1; id <= nCores; id++ {
				if mask&(1<<uint(id%8)) != 0 {
					cores = append(cores, id)
				}
			}
			if len(cores) == 0 {
				cores = []int{1 + g%nCores}
			}
			groups = append(groups, &Group{
				Name: fmt.Sprintf("G%d", g), Cores: cores, Patterns: int64(1 + take()%50),
			})
		}

		opt, _, _, err := ExactSchedule(context.Background(), a, groups, Model{}, nil, nil)
		if err != nil {
			return // rejected instance (e.g. over the group limit): must not panic, nothing more to check
		}
		greedy, err := ScheduleSITest(a, groups, Model{})
		if err != nil {
			t.Fatalf("exact accepted but Algorithm 1 rejected: %v", err)
		}
		if greedy.TotalSI < opt {
			t.Fatalf("greedy makespan %d beats the exact optimum %d", greedy.TotalSI, opt)
		}

		for n := 0; n <= 3; n++ {
			ctx := &nodeCountdownCtx{Context: context.Background(), n: n}
			bound, _, partial, err := ExactSchedule(ctx, a, groups, Model{}, nil, nil)
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("n=%d: unexpected error %v", n, err)
				}
				continue
			}
			if bound < opt {
				t.Fatalf("n=%d: cut-short makespan %d undercuts the optimum %d (partial=%v)", n, bound, opt, partial)
			}
		}
	})
}
