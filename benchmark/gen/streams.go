package gen

// Deck deals class indexes 0..n-1 in seeded shuffles of the whole set, so a
// run issues every class equally often (±1) whatever its length — a mix
// drawn independently per request would let the share of the slow classes,
// and with it every latency percentile, wander from run to run.
type Deck struct {
	r    *Rand
	card []int
	next int
}

// NewDeck returns a deck over n classes.
func NewDeck(r *Rand, n int) *Deck {
	d := &Deck{r: r, card: make([]int, n), next: n}
	for i := range d.card {
		d.card[i] = i
	}
	return d
}

// Next deals the next class.
func (d *Deck) Next() int {
	if d.next == len(d.card) {
		for i := len(d.card) - 1; i > 0; i-- {
			j := d.r.Intn(i + 1)
			d.card[i], d.card[j] = d.card[j], d.card[i]
		}
		d.next = 0
	}
	c := d.card[d.next]
	d.next++
	return c
}

// HotSetSize is the number of constants the point workload keeps asking for.
// With three shapes they make 24 texts, each asked for again after about 120
// requests — few enough fresh texts in between that the service's 128-plan
// LRU still holds it. (64 constants, the first plan, make 192 texts: a hot
// text would come round every 960 requests and never be found cached.)
const HotSetSize = 8

// Points is the constant stream of the point workload: four requests in
// five carry a constant drawn uniformly from all node ids (a text the plan
// cache has almost surely not seen), one in five a constant of the hot set.
type Points struct {
	r     *Rand
	nodes int
	Hot   []int
}

// NewPoints returns the stream for a graph of the given node count.
func NewPoints(r *Rand, nodes int) *Points {
	p := &Points{r: r, nodes: nodes}
	for i := 0; i < HotSetSize; i++ {
		p.Hot = append(p.Hot, r.Intn(nodes))
	}
	return p
}

// Next draws the next constant.
func (p *Points) Next() (k int, hot bool) {
	if p.r.Intn(5) == 0 {
		return p.Hot[p.r.Intn(len(p.Hot))], true
	}
	return p.r.Intn(p.nodes), false
}

// Batch is one mutation request of the write workload.
type Batch struct {
	Insert, Delete []Edge
}

// Mutation schedule shape: each batch attaches BatchEdges fresh leaves and,
// once ChurnLag batches have gone by, detaches the leaves inserted ChurnLag
// batches earlier.
const (
	BatchEdges = 4
	ChurnLag   = 16
)

// Schedule is the sliding-window mutation schedule over a hierarchy: the
// database holds the original edges plus the leaves of the last ChurnLag
// batches. Leaves hang off nodes of the upper half of the id range, so a
// point query on a lower-half node has the same answer throughout.
type Schedule struct {
	r      *Rand
	nodes  int
	fresh  int
	window [][]Edge
}

// NewSchedule returns the schedule for a hierarchy of the given node count.
func NewSchedule(r *Rand, nodes int) *Schedule {
	return &Schedule{r: r, nodes: nodes, fresh: nodes}
}

// Next returns the next batch.
func (s *Schedule) Next() Batch {
	var b Batch
	for i := 0; i < BatchEdges; i++ {
		parent := s.nodes/2 + s.r.Intn(s.nodes-s.nodes/2)
		b.Insert = append(b.Insert, Edge{parent, s.fresh})
		s.fresh++
	}
	s.window = append(s.window, b.Insert)
	if len(s.window) > ChurnLag {
		b.Delete = s.window[0]
		s.window = s.window[1:]
	}
	return b
}
