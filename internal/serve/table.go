package serve

// jobTable holds the pool's jobs from the oldest unfinished one to the
// newest, in ID order: q[at+i] is job lo+i, and IDs are issued densely
// from 0. A job is finished once its DoneAt is set. reclaim advances the
// cursor past the finished jobs at the front, and add compacts that
// consumed prefix in place once it is at least half the buffer (sim's
// fifo lanes do the same), so the table's storage follows the jobs in
// flight, not the jobs served. A *Job from get is valid until the next
// add.
type jobTable struct {
	q  []Job
	at int // index of the oldest unfinished job in q
	lo int // ID of q[at]
}

// next is the ID the next add issues. Every ID below it is a pool ID,
// whether or not its job is still in the table.
func (t *jobTable) next() int { return t.lo + len(t.q) - t.at }

// add appends a job, giving it the next ID, and returns that ID.
func (t *jobTable) add(j Job) int {
	if len(t.q) == cap(t.q) && t.at > 0 && 2*t.at >= len(t.q) {
		n := copy(t.q, t.q[t.at:])
		t.q = t.q[:n]
		t.at = 0
	}
	j.ID = t.next()
	t.q = append(t.q, j)
	return j.ID
}

// get returns job id, or nil when it has finished and left the table or
// was never issued.
func (t *jobTable) get(id int) *Job {
	if id < t.lo || id >= t.next() {
		return nil
	}
	return &t.q[t.at+id-t.lo]
}

// reclaim drops the finished jobs (DoneAt set) at the front of the table,
// up to the oldest unfinished one.
func (t *jobTable) reclaim() {
	for t.at < len(t.q) && t.q[t.at].DoneAt != 0 {
		t.at++
		t.lo++
	}
	if t.at == len(t.q) {
		t.q = t.q[:0]
		t.at = 0
	}
}

// idRing is a FIFO of job IDs in a reused circular buffer. pushFront
// puts a crash-replace requeue at the head.
type idRing struct {
	buf  []int
	head int // index of the front ID in buf
	n    int
}

func (r *idRing) len() int { return r.n }

// front returns the head ID; the ring must not be empty.
func (r *idRing) front() int { return r.buf[r.head] }

func (r *idRing) popFront() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *idRing) pushBack(id int) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = id
	r.n++
}

func (r *idRing) pushFront(id int) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head--
	if r.head < 0 {
		r.head = len(r.buf) - 1
	}
	r.buf[r.head] = id
	r.n++
}

// grow doubles the buffer, laying the IDs out from index 0 in order.
func (r *idRing) grow() {
	buf := make([]int, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
