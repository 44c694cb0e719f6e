package core

import (
	"pimdsm/internal/cache"
	"pimdsm/internal/obs"
	"pimdsm/internal/sim"
)

// Scan implements computation in memory (§2.4): the home D-node's processor
// traverses lines memory lines starting at addr on behalf of P-node p,
// shipping back only the selBytes of records that satisfy the selection.
//
// Lines whose only copy is at a P-node are first written back — the paper
// notes computation in memory "is better done on data that is guaranteed not
// to leave memory; otherwise, we need to write back the data from the caches
// in advance". The write-back is a downgrade, not an invalidation: the
// former owner keeps a shared-master copy, and the home's copy stays on the
// SharedList (droppable), so scanning a table larger than the D-memory never
// forces pageouts — the scan streams through reusable slots.
//
// The scan spans page boundaries; each page is processed at its own home
// D-node, and Scan returns when the last selected record arrives at p.
func (m *Machine) Scan(now sim.Time, p int, addr uint64, lines int, selBytes uint64) sim.Time {
	if lines <= 0 {
		return now
	}
	ctrl := m.Net.ControlBytes()
	done := now
	cur := m.AlignLine(addr)
	remaining := lines
	for remaining > 0 {
		page := m.PageOf(cur)
		inPage := int((page + m.cfg.PageBytes - cur) / m.cfg.LineBytes)
		if inPage > remaining {
			inPage = remaining
		}
		d, _, t := m.homeFor(now, cur)
		dm := m.dmem[d]
		arrive := m.Net.Send(t, m.pMesh[p], m.dMesh[d], ctrl)
		hs := m.dproc[d].Acquire(arrive, sim.Time(inPage)*m.cfg.ScanPerLine)
		m.profD(d, obs.ResProc, obs.HCScan, sim.Time(inPage)*m.cfg.ScanPerLine)
		tl := hs
		var lastRecall sim.Time
		for i := 0; i < inPage; i++ {
			line := cur + uint64(i)*m.cfg.LineBytes
			e := dm.Entry(line)
			needRecall := !e.HasCopy() && !e.Unfetched &&
				(e.State == DirDirty || (e.State == DirShared && e.Master != HomeMaster))
			if needRecall {
				owner := int(e.Master)
				lastRecall = max(lastRecall, m.recall(tl, d, owner, line))
				// Downgrade the owner; it keeps a shared-master copy and
				// stays the master, so the home's new copy is droppable.
				if e.State == DirDirty {
					m.Mem[owner].SetState(line, cache.SharedMaster)
					m.Caches[owner].DowngradeMemLine(line)
					e.State = DirShared
					e.Sharers.Add(owner)
				}
				// Keep the data at the home only if a slot is available
				// without paging out; otherwise the scan consumed the line
				// in flight and the master remains the only holder.
				if res, _ := dm.EnsureSlot(line, e); res != AllocFailed {
					dm.LinkShared(e)
				}
			}
			if e.OnDisk {
				ds := m.disk[d].Acquire(tl, m.cfg.Timing.DiskLat)
				m.profD(d, obs.ResDisk, obs.HCScan, m.cfg.Timing.DiskLat)
				tl = ds + m.cfg.Timing.DiskLat
				m.St.DiskFaults++
				if m.Trace.On() {
					m.Trace.Emit(obs.EvDiskFault, ds, 0, m.dnode(d), line, 0)
				}
				// Keep the faulted data if room exists; otherwise it is
				// consumed in flight and the line stays on disk.
				if res, _ := dm.EnsureSlot(line, e); res != AllocFailed {
					if e.State == DirShared && e.Master != HomeMaster {
						dm.LinkShared(e)
					}
				}
			}
			m.dbank[d].Acquire(tl, m.cfg.Timing.MemBankOcc)
			m.profD(d, obs.ResMem, obs.HCScan, m.cfg.Timing.MemBankOcc)
			tl += m.cfg.ScanPerLine
			m.St.ScanLines++
		}
		if lastRecall > tl {
			tl = lastRecall
		}
		m.dproc[d].Block(hs, tl)
		if tl > hs {
			m.profD(d, obs.ResProc, obs.HCScan, tl-hs)
		}
		if m.Trace.On() {
			m.Trace.Emit(obs.EvScan, hs, tl-hs, m.dnode(d), page, uint64(inPage))
		}
		// Ship this page's share of the selected records.
		sel := selBytes * uint64(inPage) / uint64(lines)
		pd := m.Net.Send(tl, m.dMesh[d], m.pMesh[p], m.Net.DataBytes(sel))
		if pd > done {
			done = pd
		}
		cur += uint64(inPage) * m.cfg.LineBytes
		remaining -= inPage
	}
	m.St.Scans++
	return done
}
