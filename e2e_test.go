// End-to-end tests for the command binaries: dmsql and dmserver are compiled
// with the local toolchain and driven exactly as a user would drive them —
// scripts over stdin/-f for the shell, a TCP client against the server.
package repro_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dmclient"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// builtBinary compiles cmd/<name> once per test run and returns its path.
func builtBinary(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "oledbdm-bin")
		if buildErr != nil {
			return
		}
		for _, b := range []string{"dmsql", "dmserver"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, b), "./cmd/"+b)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				buildDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v\n%s", buildErr, buildDir)
	}
	return filepath.Join(buildDir, name)
}

func TestDMSQLScriptFile(t *testing.T) {
	bin := builtBinary(t, "dmsql")
	script := filepath.Join(t.TempDir(), "s.dmx")
	if err := os.WriteFile(script, []byte(`
		CREATE TABLE People (id LONG, color TEXT, class TEXT);
		INSERT INTO People VALUES
			(1,'red','hi'), (2,'blue','lo'), (3,'red','hi'), (4,'blue','lo'),
			(5,'red','hi'), (6,'blue','lo'), (7,'red','hi'), (8,'blue','lo');
		CREATE MINING MODEL [CM] ([id] LONG KEY, [color] TEXT DISCRETE,
			[class] TEXT DISCRETE PREDICT) USING [Naive_Bayes];
		INSERT INTO [CM] ([id], [color], [class]) SELECT id, color, class FROM People;
		SELECT Predict([class]) AS p FROM [CM]
			NATURAL PREDICTION JOIN (SELECT 'red' AS color) AS t;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-f", script).CombinedOutput()
	if err != nil {
		t.Fatalf("dmsql: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hi") {
		t.Errorf("output missing prediction:\n%s", out)
	}
}

func TestDMSQLStdinAndShellCommands(t *testing.T) {
	bin := builtBinary(t, "dmsql")
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader("\\help\nSELECT 40 + 2 AS answer;\n\\models\n\\quit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dmsql: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "42") {
		t.Errorf("arithmetic missing:\n%s", s)
	}
	if !strings.Contains(s, "MODEL_NAME") {
		t.Errorf("\\models output missing:\n%s", s)
	}
}

func TestDMSQLPersistenceDir(t *testing.T) {
	bin := builtBinary(t, "dmsql")
	dir := t.TempDir()
	run := func(script string) string {
		cmd := exec.Command(bin, "-dir", dir)
		cmd.Stdin = strings.NewReader(script)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("dmsql: %v\n%s", err, out)
		}
		return string(out)
	}
	run("CREATE TABLE T (x LONG);\nINSERT INTO T VALUES (7);\n\\save\n")
	out := run("SELECT * FROM T;\n")
	if !strings.Contains(out, "7") {
		t.Errorf("persisted table missing after restart:\n%s", out)
	}
}

func TestDMServerBinary(t *testing.T) {
	bin := builtBinary(t, "dmserver")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-demo", "50")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Parse "dmserver listening on <addr>".
	var addr string
	sc := bufio.NewScanner(stdout)
	deadline := time.After(20 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				got <- strings.TrimSpace(line[i+len("listening on "):])
				return
			}
		}
	}()
	select {
	case addr = <-got:
	case <-deadline:
		t.Fatal("server did not report its address")
	}

	c, err := dmclient.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Execute("SELECT COUNT(*) FROM Customers")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Row(0)[0] != int64(50) {
		t.Errorf("demo customers = %v", rs.Row(0))
	}
}
