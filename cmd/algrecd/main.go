// Command algrecd is the resident query service: an HTTP/JSON server that
// keeps named databases in memory and evaluates algebra, ifp-algebra,
// algebra= and datalog queries under any of the six semantics, with a
// compiled-plan cache, per-request budgets and timeouts, and graceful
// shutdown. See docs/server.md for the API.
//
// Usage:
//
//	algrecd [-addr :8372] [-db name=file.alg ...] [-cache 128]
//	        [-timeout 30s] [-max-body 1048576]
//	        [-disk DIR] [-disk-sync]
//
// Each -db flag registers a database from an algebra= script containing only
// rel statements. With -disk, every write also lands in an on-disk store
// under DIR — one directory per database, recovered automatically on
// restart — while queries read the resident current version as they do
// without it. On SIGINT/SIGTERM the server drains: new queries are refused
// with the "shutting-down" error while in-flight requests complete (bounded
// by -grace).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"algrec/internal/obsv"
	"algrec/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "algrecd:", err)
		os.Exit(1)
	}
}

// dbFlags collects repeated -db name=path flags.
type dbFlags []struct{ name, path string }

// String implements flag.Value.
func (d *dbFlags) String() string { return fmt.Sprintf("%d databases", len(*d)) }

// Set implements flag.Value.
func (d *dbFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, struct{ name, path string }{name, path})
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("algrecd", flag.ContinueOnError)
	addr := fs.String("addr", ":8372", "listen address")
	cache := fs.Int("cache", 128, "compiled-plan LRU capacity (negative disables caching)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request evaluation timeout (negative disables)")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes")
	grace := fs.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	diskDir := fs.String("disk", "", "back databases with on-disk stores under this directory (empty = in memory)")
	diskSync := fs.Bool("disk-sync", false, "fsync the storage log after every mutation batch")
	var dbs dbFlags
	fs.Var(&dbs, "db", "register a database: name=file.alg (repeatable; the file is an algebra= script of rel statements)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		CacheCap:       *cache,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
	}
	if *diskDir != "" {
		cfg.Storage = &server.StorageConfig{Dir: *diskDir, Sync: *diskSync}
	}
	srv := server.New(cfg)
	recovered, err := srv.OpenStorage()
	if err != nil {
		return fmt.Errorf("storage recovery: %w", err)
	}
	for _, name := range recovered {
		log.Printf("recovered database %q from %s", name, *diskDir)
	}
	for _, d := range dbs {
		src, err := os.ReadFile(d.path)
		if err != nil {
			return err
		}
		db, err := server.LoadDBScript(string(src))
		if err != nil {
			return fmt.Errorf("database %q (%s): %w", d.name, d.path, err)
		}
		if err := srv.RegisterDB(d.name, db); err != nil {
			return fmt.Errorf("database %q: %w", d.name, err)
		}
		log.Printf("registered database %q (%d relations) from %s", d.name, len(db), d.path)
	}
	// Route engine-internal events (fixpoint rounds, grounding passes,
	// stable searches) to the server's /metrics counters too.
	obsv.SetDefault(srv.Collector())

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("algrecd listening on %s", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("draining (grace %s)...", *grace)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("storage close: %w", err)
	}
	log.Printf("drained; bye")
	return nil
}
