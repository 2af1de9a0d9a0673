package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"misar/internal/harness"
	"misar/internal/store"
)

// White-box tests for per-tenant admission quotas: the bookkeeping around
// s.tenants, separated from real simulation lifetimes by seeding the
// occupancy maps directly.

func postJob(t *testing.T, s *Server, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(JobRequest{App: "streamcluster", Config: "msaomu2", Tiles: 4})
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=0", strings.NewReader(string(body)))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	s.handleSubmit(rec, req)
	return rec
}

func TestTenantQuotaDefaultsToQuarterQueue(t *testing.T) {
	if got := newBareServer(t, 64).opt.TenantQuota; got != 16 {
		t.Errorf("TenantQuota(queue 64) = %d, want 16", got)
	}
	if got := newBareServer(t, 2).opt.TenantQuota; got != 1 {
		t.Errorf("TenantQuota(queue 2) = %d, want 1 (never zero)", got)
	}
}

// heldStore answers no lookup until its context ends, so every run that
// consults it stays unfinished and every job on such a run keeps its
// tenant slot.
type heldStore struct{ *store.Store }

func (h heldStore) GetCtx(ctx context.Context, _ string) ([]byte, bool) {
	<-ctx.Done()
	return nil, false
}

func TestTenantQuotaBreachAndRecovery(t *testing.T) {
	// The jobs admitted below are identical, so they share one run; the
	// held store keeps it from finishing (until Close cancels it), or a
	// finished run would answer acme's last job from the memo and reap it
	// before its slot is read.
	s, err := New(Options{Workers: 1, QueueLimit: 8, TenantQuota: 2, StoreDir: t.TempDir(),
		WrapStore: func(st *store.Store) harness.ResultStore { return heldStore{st} }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Seed: tenant "acme" already holds its full quota of unfinished jobs.
	s.mu.Lock()
	s.tenants["acme"] = 2
	s.admitted = 2
	s.mu.Unlock()

	// Over-quota submission: 429 with a Retry-After hint and the dedicated
	// counter, while the shared queue still has 6 free slots.
	rec := postJob(t, s, "acme")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "over quota") {
		t.Errorf("reject body %q, want an over-quota mention", rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("over-quota reject missing Retry-After")
	}
	s.met.Lock()
	rejects := s.reg.Counter("serve.queue.tenant_rejects").Value()
	s.met.Unlock()
	if rejects != 1 {
		t.Errorf("serve.queue.tenant_rejects = %d, want 1", rejects)
	}

	// A different tenant and an anonymous client are unaffected.
	if rec := postJob(t, s, "rival"); rec.Code != http.StatusAccepted {
		t.Errorf("rival tenant submit = %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}
	if rec := postJob(t, s, ""); rec.Code != http.StatusAccepted {
		t.Errorf("anonymous submit = %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}

	// Recovery: once acme's jobs reap (simulated by releasing its slots),
	// the tenant admits again.
	s.mu.Lock()
	delete(s.tenants, "acme")
	s.admitted -= 2
	s.mu.Unlock()
	if rec := postJob(t, s, "acme"); rec.Code != http.StatusAccepted {
		t.Errorf("post-reap acme submit = %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}
	s.mu.Lock()
	held := s.tenants["acme"]
	s.mu.Unlock()
	if held != 1 {
		t.Errorf("acme holds %d slots after re-admission, want 1", held)
	}
}

// TestTenantReapReleasesSlot drives one real job end to end and checks the
// tenant's slot is returned (and the empty bucket pruned) at reap.
func TestTenantReapReleasesSlot(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	rec := postJob(t, s, "acme")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (body %s)", rec.Code, rec.Body.String())
	}
	var ev JobEvent
	if err := json.NewDecoder(rec.Body).Decode(&ev); err != nil || ev.Job == "" {
		t.Fatalf("accepted event: %+v, err %v", ev, err)
	}
	s.mu.Lock()
	job := s.jobs[ev.Job]
	s.mu.Unlock()
	if job == nil || job.tenant != "acme" {
		t.Fatalf("job %q not tracked with tenant acme: %+v", ev.Job, job)
	}
	<-job.done
	// reap decrements under s.mu after close(done); spin briefly for it.
	for i := 0; ; i++ {
		s.mu.Lock()
		n, ok := s.tenants["acme"]
		adm := s.admitted
		s.mu.Unlock()
		if !ok && adm == 0 {
			break
		}
		if i > 1000 {
			t.Fatalf("tenant slot not released: acme=%d (present %v), admitted=%d", n, ok, adm)
		}
		time.Sleep(time.Millisecond)
	}
}
