package frame_test

import (
	"testing"

	"pimdsm/internal/coma"
	"pimdsm/internal/core"
	"pimdsm/internal/frame"
	"pimdsm/internal/numa"
	"pimdsm/internal/proto"
	"pimdsm/internal/sim"
)

// machine is what the test drives: a protocol's accesses and its frame.
type machine interface {
	Access(now sim.Time, p int, addr uint64, write bool) (sim.Time, proto.LatClass)
	Base() *frame.Frame
}

// TestAccessZeroAlloc pins each machine's Access at zero allocations once
// its pages are touched: four nodes take turns sweeping 128 pages, each
// line visited by a different node on each sweep and every third access a
// write, so reads miss to remote homes and owners and writes invalidate
// sharers. Observers stay detached; the scheduler floor
// follows the clock so the resource calendars stay bounded, as in a run.
func TestAccessZeroAlloc(t *testing.T) {
	const nodes, lines = 4, 1 << 12
	builders := []struct {
		name string
		new  func() (machine, error)
	}{
		{"agg", func() (machine, error) {
			return core.New(core.DefaultConfig(nodes, nodes, 1<<22, 1<<16, 8192, 32768))
		}},
		{"numa", func() (machine, error) { return numa.New(numa.DefaultConfig(nodes, 1<<22, 8192, 32768)) }},
		{"coma", func() (machine, error) { return coma.New(coma.DefaultConfig(nodes, 1<<22, 8192, 32768)) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			m, err := b.new()
			if err != nil {
				t.Fatal(err)
			}
			var now, floor sim.Time
			m.Base().SetFloor(&floor)
			i := 0
			step := func() {
				floor = now
				now, _ = m.Access(now, (i+i/lines)%nodes, uint64(i%lines)*128, i%3 == 0)
				i++
			}
			for i < 4*lines {
				step()
			}
			st := m.Base().Stats()
			remote := st.ReadCount[proto.Lat2Hop] + st.ReadCount[proto.Lat3Hop]
			if a := testing.AllocsPerRun(4*lines, step); a != 0 {
				t.Errorf("Access allocates %.0f times per call", a)
			}
			if st.ReadCount[proto.Lat2Hop]+st.ReadCount[proto.Lat3Hop] == remote {
				t.Errorf("no remote reads in the measured loop")
			}
		})
	}
}
