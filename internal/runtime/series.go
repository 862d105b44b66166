package runtime

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// The per-session gauge families are not written on admission and
// teardown: the registry reads them from the session table whenever it
// is read (DESIGN.md §12). A session's series appear with it and vanish
// when Close takes it out of the table.

// sessionRow is one live session as a scrape reads it.
type sessionRow struct {
	id SessionID
	// labels holds the session label and the tenant ("" when anonymous).
	labels                        [2]string
	phi, qos, requiredPhi, weight float64
}

// sessionScrape is the last read of the session table: the families one
// registry scrape reads share it, and the next read reuses its storage.
type sessionScrape struct {
	mu sync.Mutex
	// scrape is the registry read the rows were taken for. guarded by mu
	scrape uint64
	// rows are sorted by session label. guarded by mu
	rows []sessionRow
}

// registerSessionFamilies registers the per-session families (the same
// names the dist engine stores): each live session's phi, its observed
// Eq. 3 standing (QoS MaxRatio), the constant requirement 1, the
// admission-time phi bound the drift monitor compares against, and, for
// sessions of a named tenant, the tenant valued at the phi weight.
func (c *Cluster) registerSessionFamilies() {
	c.sessionPhi = c.sessionFamily("session.phi", func(r *sessionRow) float64 { return r.phi }, "session")
	c.sessionFamily("session.qos.observed", func(r *sessionRow) float64 { return r.qos }, "session")
	c.sessionFamily("session.qos.required", func(*sessionRow) float64 { return 1 }, "session")
	c.sessionPhiReq = c.sessionFamily("session.phi.required", func(r *sessionRow) float64 { return r.requiredPhi }, "session")
	c.sessionFamily("session.tenant", func(r *sessionRow) float64 { return r.weight }, "session", "tenant")
}

// sessionFamily registers one family over the session table; value gives
// a session's value.
func (c *Cluster) sessionFamily(name string, value func(r *sessionRow) float64, labels ...string) *obs.GaugeVec {
	arity := len(labels)
	return c.cfg.Registry.GaugeVecFunc(name, func(scrape uint64, emit func([]string, float64)) {
		sc := &c.scrape
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if sc.scrape != scrape {
			c.readSessions(scrape)
		}
		for i := range sc.rows {
			// An anonymous session has no tenant label, so no tenant series.
			if r := &sc.rows[i]; r.labels[arity-1] != "" {
				emit(r.labels[:arity], value(r))
			}
		}
	}, labels...)
}

// readSessions refills the scrape's rows for scrape: one pass under mu
// copies every session's values, then the labels are formatted and
// sorted with mu released. Caller holds c.scrape.mu.
func (c *Cluster) readSessions(scrape uint64) {
	rows := c.scrape.rows[:0]
	c.mu.Lock()
	for id, s := range c.sessions {
		rows = append(rows, sessionRow{
			id:          id,
			labels:      [2]string{1: s.tenant},
			phi:         s.phi,
			qos:         s.comp.QoS.MaxRatio(s.request.QoSReq),
			requiredPhi: s.requiredPhi,
			weight:      s.request.PhiWeight(),
		})
	}
	c.mu.Unlock()
	for i := range rows {
		rows[i].labels[0] = sessionLabel(rows[i].id)
	}
	slices.SortFunc(rows, func(a, b sessionRow) int { return strings.Compare(a.labels[0], b.labels[0]) })
	c.scrape.rows, c.scrape.scrape = rows, scrape
}

// sessionLabel renders a session ID as its gauge-vector label value.
func sessionLabel(id SessionID) string { return strconv.FormatInt(int64(id), 10) }
