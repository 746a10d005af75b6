package dmserver_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
	"repro/internal/rowset"
)

// bigProvider returns a provider with a table whose self cross join is
// expensive enough for cancellation to land mid-scan.
func bigProvider(t *testing.T, rows int) *provider.Provider {
	t.Helper()
	p := providertest.MustNew()
	s := p.NewSession()
	if _, err := s.Execute(context.Background(), "CREATE TABLE Big (id LONG, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Big VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'r%d')", i, i)
	}
	if _, err := s.Execute(context.Background(), b.String()); err != nil {
		t.Fatal(err)
	}
	return p
}

const crossJoinQuery = "SELECT COUNT(*) FROM Big AS a, Big AS b WHERE a.id < b.id"

// TestBaseContextReachesStatements is the regression test for the server
// executing every statement under context.Background(): with a cancelled
// BaseContext, the statement must abort and classify as cancelled in the
// query log. Before the fix the scan ran to completion regardless.
func TestBaseContextReachesStatements(t *testing.T) {
	p := bigProvider(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := dmserver.New(p)
	s.Logf = func(string, ...any) {}
	s.BaseContext = ctx
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(l) }() //nolint:errcheck
	defer func() { s.Close(); <-done }()

	c, err := dmclient.New(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := p.Obs().QueryLog().Total()
	if _, err := c.Execute(crossJoinQuery); err == nil {
		t.Fatal("statement under a cancelled BaseContext must fail")
	}
	recs := p.Obs().QueryLog().Snapshot()
	if p.Obs().QueryLog().Total() != before+1 || len(recs) == 0 {
		t.Fatalf("query log total = %d, want %d", p.Obs().QueryLog().Total(), before+1)
	}
	if last := recs[len(recs)-1]; last.ErrClass != "cancelled" {
		t.Errorf("ErrClass = %q, want cancelled", last.ErrClass)
	}
}

// TestTimedOutRequestBreaksClient is the regression test for a client that
// kept its connection after a request timed out: the late response of the
// timed-out statement was then read as the answer to the next one. A failure
// below the protocol now closes the connection, and every later call returns
// that same error.
func TestTimedOutRequestBreaksClient(t *testing.T) {
	p := bigProvider(t, 1200)
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr, dmclient.WithRequestTimeout(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := p.Obs().QueryLog().Total()
	_, first := c.Execute(crossJoinQuery)
	var ne net.Error
	if !errors.As(first, &ne) || !ne.Timeout() {
		t.Fatalf("cross join under a 5ms request timeout = %v, want a timeout", first)
	}
	// Let the server finish the cross join, so its late response is already
	// on the way when the next call reads.
	for deadline := time.Now().Add(10 * time.Second); p.Obs().QueryLog().Total() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cross join never finished on the server")
		}
	}
	for _, call := range []func() (*rowset.Rowset, error){
		func() (*rowset.Rowset, error) { return c.Execute("SELECT 'second' AS x") },
		func() (*rowset.Rowset, error) { return c.ExecuteParams("SELECT ? AS x", "third") },
	} {
		rs, err := call()
		if rs != nil {
			t.Fatalf("call after a timeout returned a rowset: %v", rs.Rows())
		}
		if !errors.Is(err, first) {
			t.Errorf("call after a timeout = %v, want the timeout %v", err, first)
		}
	}
}

// TestCloseCancelsInFlightStatement asserts Close aborts a statement that is
// already executing: the in-flight scan must log as cancelled rather than
// running to completion against a closed server. The table size escalates
// until the scan reliably outlives the close, so the test stays robust on
// fast machines.
func TestCloseCancelsInFlightStatement(t *testing.T) {
	for _, rows := range []int{300, 600, 1200} {
		p := bigProvider(t, rows)
		s := dmserver.New(p)
		s.Logf = func(string, ...any) {}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); s.Serve(l) }() //nolint:errcheck

		c, err := dmclient.New(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		execDone := make(chan error, 1)
		go func() {
			_, err := c.Execute(crossJoinQuery)
			execDone <- err
		}()
		time.Sleep(15 * time.Millisecond)
		s.Close()
		<-execDone
		c.Close()
		<-done

		// The statement record lands in the query log when the provider call
		// returns, which may trail the client's error slightly.
		deadline := time.Now().Add(5 * time.Second)
		for {
			recs := p.Obs().QueryLog().Snapshot()
			if n := len(recs); n > 0 {
				last := recs[n-1]
				if last.ErrClass == "cancelled" {
					return // in-flight statement was cancelled by Close
				}
				if last.ErrClass == "" && strings.Contains(last.Statement, "COUNT") {
					break // scan finished before Close: escalate the table size
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no terminal query-log record; log = %+v", recs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("scan never outlived Close, even at the largest table size")
}
