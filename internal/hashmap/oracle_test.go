package hashmap

// oracleMap is the three-array layout Map had before its slots were packed:
// keys, values and used flags in parallel arrays. It is kept verbatim as the
// reference the packed Map must match slot for slot: the same results, the
// same Len and the same Range sequence after any operation history.
type oracleMap[V any] struct {
	keys []uint64
	vals []V
	used []bool
	n    int
	// shift turns the 64-bit hash into a table index: idx = hash >> shift.
	shift uint
}

// Len returns the number of stored entries.
func (m *oracleMap[V]) Len() int { return m.n }

func (m *oracleMap[V]) home(k uint64) uint64 { return (k * fibMul) >> m.shift }

// Get returns the value stored for k.
func (m *oracleMap[V]) Get(k uint64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			var zero V
			return zero, false
		}
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
}

// Put stores v for k, replacing any previous value.
func (m *oracleMap[V]) Put(k uint64, v V) {
	if (m.n+1)*maxLoadDen > len(m.keys)*maxLoadNum {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
	}
}

// Delete removes k and reports whether it was present. Deletion shifts the
// following probe run backward instead of leaving a tombstone, so lookup cost
// never degrades with churn.
func (m *oracleMap[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	i := m.home(k)
	for {
		if !m.used[i] {
			return false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift: any entry later in the probe run that would still be
	// reachable from its home position after moving into the hole does move.
	j := i
	for {
		j = (j + 1) & mask
		if !m.used[j] {
			break
		}
		h := m.home(m.keys[j])
		if ((j - h) & mask) >= ((j - i) & mask) {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.used[i] = false
	m.keys[i] = 0
	m.vals[i] = zero
	m.n--
	return true
}

// Range calls fn for every entry until fn returns false. The iteration order
// is the table's probe order: deterministic for a deterministic operation
// history, but otherwise unspecified. fn must not add or delete entries.
func (m *oracleMap[V]) Range(fn func(k uint64, v V) bool) {
	for i := range m.keys {
		if m.used[i] && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// Reset drops every entry but keeps the allocated table for reuse.
func (m *oracleMap[V]) Reset() {
	var zero V
	for i := range m.keys {
		if m.used[i] {
			m.used[i] = false
			m.keys[i] = 0
			m.vals[i] = zero
		}
	}
	m.n = 0
}

func (m *oracleMap[V]) grow() {
	newCap := minCap
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.used = make([]bool, newCap)
	m.n = 0
	m.shift = 64
	for c := newCap; c > 1; c >>= 1 {
		m.shift--
	}
	for i := range oldKeys {
		if oldUsed[i] {
			m.reinsert(oldKeys[i], oldVals[i])
		}
	}
}

// reinsert is Put without the growth check, for rehashing.
func (m *oracleMap[V]) reinsert(k uint64, v V) {
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); ; i = (i + 1) & mask {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
	}
}
