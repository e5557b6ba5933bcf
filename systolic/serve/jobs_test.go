package serve

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestJobFinishPersistsBeforePublishing: the moment get first reports a
// terminal status, the job's spool file already exists, so a restart right
// after a client sees "done" can still reload it. Each job finishes on its
// own goroutine while the test polls get; a sizeable report widens the
// window between publishing and persisting that an unordered finish would
// leave open.
func TestJobFinishPersistsBeforePublishing(t *testing.T) {
	spool := t.TempDir()
	st, err := newJobStore(spool, 1000)
	if err != nil {
		t.Fatal(err)
	}
	report := make([]int, 20000)
	for i := range report {
		report[i] = i
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < 200; i++ {
		job := st.create("sweep", "key")
		st.start(job.ID)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.finish(job.ID, func(j *Job) {
				j.Status = JobDone
				j.Report = report
			})
		}()
		for {
			got, ok := st.get(job.ID)
			if !ok {
				t.Fatalf("job %d vanished while finishing", i)
			}
			if got.terminal() {
				break
			}
			runtime.Gosched()
		}
		if _, err := os.Stat(filepath.Join(spool, job.ID+".json")); err != nil {
			t.Fatalf("job %d reads terminal but is not in the spool: %v", i, err)
		}
	}
}
