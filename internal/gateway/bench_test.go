package gateway_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/des"
	"github.com/faaspipe/faaspipe/internal/gateway"
	"github.com/faaspipe/faaspipe/internal/session"
)

// BenchmarkGatewayAdmission measures the admission stack end to end —
// authenticate, rate-check, enqueue, DRR dispatch, run, complete —
// under 100-tenant contention, reporting wall-clock admissions/sec.
// The jobs are near-empty FuncStages so the number tracks gateway
// overhead, not workload. Tenants present static bearer tokens.
func BenchmarkGatewayAdmission(b *testing.B) {
	toks := make(gateway.StaticTokens, admissionTenants)
	creds := make([]gateway.Credential, admissionTenants)
	for i := range creds {
		tok := fmt.Sprintf("tok-%03d", i)
		toks[tok] = fmt.Sprintf("t%03d", i)
		creds[i] = gateway.Credential{Token: tok}
	}
	benchAdmission(b, toks, creds)
}

// BenchmarkGatewayAdmissionHMAC is BenchmarkGatewayAdmission with
// HMAC-SHA256 credentials, the scheme whose check runs on every
// submission of the gateway-scale workloads.
func BenchmarkGatewayAdmissionHMAC(b *testing.B) {
	auth := gateway.HMACAuth{Secret: []byte("bench-secret")}
	creds := make([]gateway.Credential, admissionTenants)
	for i := range creds {
		id := fmt.Sprintf("t%03d", i)
		creds[i] = gateway.Credential{TenantID: id, MAC: auth.Tag(id)}
	}
	benchAdmission(b, auth, creds)
}

// admissionTenants is the admission benchmarks' tenant population.
const admissionTenants = 100

// benchAdmission registers tenants t000..t099 behind auth and submits
// b.N sleep jobs round-robin with creds, tenant i presenting creds[i].
func benchAdmission(b *testing.B, auth gateway.Authenticator, creds []gateway.Credential) {
	sess, err := session.Open(calib.Local(), session.Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	g := gateway.New(sess, auth, gateway.Options{MaxConcurrent: 16})
	for i := range creds {
		if err := g.RegisterTenant(fmt.Sprintf("t%03d", i), gateway.TenantConfig{
			Weight:        1 + i%4,
			MaxConcurrent: 4,
			MaxQueued:     1 << 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
	rig := sess.Rig()
	b.ResetTimer()
	rig.Sim.Spawn("bench", func(p *des.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Submit(p, creds[i%len(creds)], sleepJob("j", time.Microsecond)); err != nil {
				b.Errorf("submit %d: %v", i, err)
				return
			}
		}
		g.Drain(p)
	})
	if err := rig.Sim.Run(); err != nil {
		b.Fatalf("sim: %v", err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admissions/s")
	if _, err := g.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
}

// BenchmarkGatewayDispatch measures fair-share dispatch under a deep
// backlog with 1k active tenants, at 0 and at 100k registered-but-idle
// tenants. Dispatch cost must be a function of runnable work, not of
// the registration table: the two sub-benchmarks' ns/op must match
// within noise, which is the O(active) acceptance criterion for the
// 100k-tenant roadmap scale.
func BenchmarkGatewayDispatch(b *testing.B) {
	const active = 1000
	for _, idle := range []int{0, 100_000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			sess, err := session.Open(calib.Local(), session.Options{})
			if err != nil {
				b.Fatalf("Open: %v", err)
			}
			toks := make(gateway.StaticTokens, active)
			creds := make([]gateway.Credential, active)
			for i := 0; i < active; i++ {
				tok := fmt.Sprintf("tok-%04d", i)
				toks[tok] = fmt.Sprintf("t%04d", i)
				creds[i] = gateway.Credential{Token: tok}
			}
			g := gateway.New(sess, toks, gateway.Options{MaxConcurrent: 64})
			for i := 0; i < active; i++ {
				if err := g.RegisterTenant(fmt.Sprintf("t%04d", i), gateway.TenantConfig{
					Weight:        1 + i%4,
					MaxConcurrent: 2,
					MaxQueued:     1 << 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
			// The idle population: registered, configured (including a
			// queue-wait deadline, so any per-registrant shed scan would
			// show up), but never submitting.
			for i := 0; i < idle; i++ {
				if err := g.RegisterTenant(fmt.Sprintf("idle%06d", i), gateway.TenantConfig{
					MaxQueueWait: time.Minute,
				}); err != nil {
					b.Fatal(err)
				}
			}
			rig := sess.Rig()
			b.ResetTimer()
			rig.Sim.Spawn("bench", func(p *des.Proc) {
				for i := 0; i < b.N; i++ {
					if _, err := g.Submit(p, creds[i%active], sleepJob("j", 10*time.Microsecond)); err != nil {
						b.Errorf("submit %d: %v", i, err)
						return
					}
				}
				g.Drain(p)
			})
			if err := rig.Sim.Run(); err != nil {
				b.Fatalf("sim: %v", err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "dispatches/s")
			if _, err := g.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
		})
	}
}
