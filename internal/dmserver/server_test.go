package dmserver_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/provider/providertest"
)

// startServer launches a server on a random local port.
func startServer(t *testing.T, p *provider.Provider) (*dmserver.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := dmserver.New(p)
	s.Logf = t.Logf
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s, l.Addr().String()
}

func TestRemoteExecution(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute("CREATE TABLE T (id LONG, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute("INSERT INTO T VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Execute("SELECT * FROM T ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.Row(1)[1] != "b" {
		t.Errorf("remote rows = %v", rs.Rows())
	}
}

func TestRemoteMiningLifecycle(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustRemote := func(cmd string) {
		t.Helper()
		if _, err := c.Execute(cmd); err != nil {
			t.Fatalf("Execute(%.60q): %v", cmd, err)
		}
	}
	mustRemote("CREATE TABLE People (id LONG, color TEXT, class TEXT)")
	var b strings.Builder
	b.WriteString("INSERT INTO People VALUES ")
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		color, class := "red", "hi"
		if i%2 == 1 {
			color, class = "blue", "lo"
		}
		fmt.Fprintf(&b, "(%d, '%s', '%s')", i, color, class)
	}
	mustRemote(b.String())
	mustRemote(`CREATE MINING MODEL [RM] ([id] LONG KEY, [color] TEXT DISCRETE,
		[class] TEXT DISCRETE PREDICT) USING [Decision_Trees]`)
	mustRemote("INSERT INTO [RM] ([id], [color], [class]) SELECT id, color, class FROM People")

	rs, err := c.Execute(`SELECT Predict([class]) FROM [RM]
		NATURAL PREDICTION JOIN (SELECT 'blue' AS color) AS t`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Row(0)[0] != "lo" {
		t.Errorf("remote prediction = %v", rs.Row(0))
	}
	// Content browse over the wire, nested distribution included.
	rs, err = c.Execute("SELECT * FROM [RM].CONTENT")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < 3 {
		t.Errorf("content rows = %d", rs.Len())
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	p := providertest.MustNew()
	_, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Execute("SELECT * FROM NoSuchTable")
	if err == nil {
		t.Fatal("remote error expected")
	}
	var re *dmserver.RemoteError
	if !errorsAs(err, &re) || !strings.Contains(re.Msg, "NoSuchTable") {
		t.Errorf("error = %#v", err)
	}
	// Connection survives errors.
	if _, err := c.Execute("SELECT 1 + 1"); err != nil {
		t.Errorf("connection dead after error: %v", err)
	}
}

func errorsAs(err error, target **dmserver.RemoteError) bool {
	re, ok := err.(*dmserver.RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestConcurrentClients(t *testing.T) {
	p := providertest.MustNew()
	s := p.NewSession()
	if _, err := s.Execute(context.Background(), "CREATE TABLE C (x LONG)"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, p)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dmclient.New(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				if _, err := c.Execute(fmt.Sprintf("INSERT INTO C VALUES (%d)", w*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rs, err := s.Execute(context.Background(), "SELECT COUNT(*) FROM C")
	if err != nil || rs.Row(0)[0] != int64(160) {
		t.Errorf("count = %v err=%v", rs.Row(0), err)
	}
}

func TestServerClose(t *testing.T) {
	p := providertest.MustNew()
	s, addr := startServer(t, p)
	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	if _, err := c.Execute("SELECT 1"); err == nil {
		t.Error("execute after server close must fail")
	}
	if err := s.Serve(nil); err == nil {
		t.Error("serve after close must fail")
	}
}

func TestServeTwiceRejected(t *testing.T) {
	p := providertest.MustNew()
	s, _ := startServer(t, p)
	defer s.Close()
	// Wait for the startServer goroutine's Serve to register its listener,
	// so this call is unambiguously the second one.
	for s.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := s.Serve(l2); err == nil {
		t.Fatal("second Serve on the same Server must be rejected")
	}
}

func TestIdleReadDeadline(t *testing.T) {
	p := providertest.MustNew()
	s := dmserver.New(p)
	s.Logf = func(string, ...any) {}
	s.IdleTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(l) }() //nolint:errcheck
	defer func() { s.Close(); <-done }()

	// A client that connects and never sends anything must be dropped once
	// the idle deadline lapses — observed as EOF/reset on its next read.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not closed by the server")
	}

	// A client that stays within the deadline keeps working across requests.
	c, err := dmclient.New(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := c.Execute("SELECT 1 AS x"); err != nil {
			t.Fatalf("request %d after idle wait: %v", i, err)
		}
	}
}
