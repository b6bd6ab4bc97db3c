package backendtest_test

import (
	"testing"

	"crowddb/internal/storage"
	"crowddb/internal/storage/backendtest"

	// Register every backend implementation; the loop below enrolls each.
	_ "crowddb/internal/storage/membackend"
)

// TestBackendConformance runs the seam contract against every registered
// backend. A new backend package only needs a blank import above to be
// enrolled.
func TestBackendConformance(t *testing.T) {
	names := storage.BackendNames()
	if len(names) == 0 {
		t.Fatal("no backend registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			backendtest.Run(t, func(t *testing.T, dir string) storage.Backend {
				be, err := storage.NewBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := be.Open(dir); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = be.Close() })
				return be
			})
		})
	}
}
