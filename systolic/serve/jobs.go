package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"
)

// JobStatus is the lifecycle of an async job.
type JobStatus string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobStatus = "queued"
	// JobRunning: holding a worker.
	JobRunning JobStatus = "running"
	// JobDone: finished successfully; the result is attached.
	JobDone JobStatus = "done"
	// JobFailed: finished with an error.
	JobFailed JobStatus = "failed"
	// JobIncomplete: an analyze job hit its round budget; a session
	// checkpoint was persisted so the run can be resumed with a higher
	// budget.
	JobIncomplete JobStatus = "incomplete"
)

// Job is the wire form of GET /v1/jobs/{id}: one asynchronous computation
// submitted with ?async=true.
type Job struct {
	ID       string    `json:"id"`
	Op       string    `json:"op"`
	Key      string    `json:"key"`
	Status   JobStatus `json:"status"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Error    string    `json:"error,omitempty"`
	// Report holds the result of a finished analyze/broadcast job.
	Report any `json:"report,omitempty"`
	// Results holds the result lines of a finished sweep job, in job order.
	Results []sweepLine `json:"results,omitempty"`
	// Checkpoint names the spool file holding the session checkpoint of an
	// incomplete analyze job (written through systolic.WriteCheckpoint).
	Checkpoint string `json:"checkpoint,omitempty"`
}

func (j *Job) terminal() bool {
	return j.Status == JobDone || j.Status == JobFailed || j.Status == JobIncomplete
}

var jobIDPattern = regexp.MustCompile(`^j[0-9a-f]{16}$`)

// jobStore tracks async jobs in memory, bounded to maxJobs entries
// (oldest terminal jobs are evicted first). With a spool directory
// configured, every terminal job is also persisted as <id>.json, and
// evicted or pre-restart jobs are transparently reloaded from disk on GET.
type jobStore struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // creation order, for eviction
	max   int
	spool string
}

func newJobStore(spool string, max int) (*jobStore, error) {
	if spool != "" {
		if err := os.MkdirAll(spool, 0o755); err != nil {
			return nil, fmt.Errorf("serve: job spool: %w", err)
		}
	}
	return &jobStore{jobs: make(map[string]*Job), max: max, spool: spool}, nil
}

//gossip:allowpanic a failing crypto/rand is unrecoverable and job IDs must not fall back to something predictable
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: randomness unavailable: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// create registers a queued job and returns a copy of it.
func (st *jobStore) create(op, key string) Job {
	j := &Job{ID: newJobID(), Op: op, Key: key, Status: JobQueued, Created: time.Now().UTC()}
	st.mu.Lock()
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.evictLocked()
	st.mu.Unlock()
	return *j
}

// evictLocked drops the oldest terminal jobs beyond the memory bound. Jobs
// persisted to the spool remain readable after eviction.
func (st *jobStore) evictLocked() {
	for len(st.jobs) > st.max {
		evicted := false
		for i, id := range st.order {
			j, ok := st.jobs[id]
			if !ok {
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
			if j.terminal() {
				delete(st.jobs, id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; do not evict running jobs
		}
	}
}

// start marks the job running.
func (st *jobStore) start(id string) {
	st.mu.Lock()
	if j, ok := st.jobs[id]; ok && j.Status == JobQueued {
		j.Status = JobRunning
		j.Started = time.Now().UTC()
	}
	st.mu.Unlock()
}

// update applies a non-terminal mutation (e.g. recording a checkpoint path
// mid-flight) without stamping the finish time or persisting.
func (st *jobStore) update(id string, mutate func(*Job)) {
	st.mu.Lock()
	if j, ok := st.jobs[id]; ok {
		mutate(j)
	}
	st.mu.Unlock()
}

// finish applies the terminal mutation (status, result, error, checkpoint)
// to a copy of the job, stamps the finish time, persists the copy to the
// spool and only then publishes it, so a job that reads terminal through
// get is already reloadable from the spool. A running job is never
// evicted, and only its own goroutine mutates it, so the copy is current.
func (st *jobStore) finish(id string, mutate func(*Job)) {
	st.mu.Lock()
	j, ok := st.jobs[id]
	if !ok {
		st.mu.Unlock()
		return
	}
	done := *j
	st.mu.Unlock()
	mutate(&done)
	done.Finished = time.Now().UTC()
	st.persist(&done)
	st.mu.Lock()
	*j = done
	st.mu.Unlock()
}

func (st *jobStore) persist(j *Job) {
	if st.spool == "" {
		return
	}
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(st.spool, j.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}

// get returns a copy of the job, falling back to the spool for jobs evicted
// from memory or persisted by a previous process.
func (st *jobStore) get(id string) (Job, bool) {
	st.mu.Lock()
	if j, ok := st.jobs[id]; ok {
		cp := *j
		st.mu.Unlock()
		return cp, true
	}
	st.mu.Unlock()
	if st.spool == "" || !jobIDPattern.MatchString(id) {
		return Job{}, false
	}
	data, err := os.ReadFile(filepath.Join(st.spool, id+".json"))
	if err != nil {
		return Job{}, false
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, false
	}
	return j, true
}

// checkpointFile names the spool file an incomplete analyze job writes its
// session checkpoint to.
func (st *jobStore) checkpointFile(id string) string {
	if st.spool == "" {
		return ""
	}
	return filepath.Join(st.spool, id+".ckpt.json")
}
