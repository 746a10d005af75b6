// Command dmsql is an interactive shell for the OLE DB DM provider: type
// DMX and SQL statements terminated by ';' and see rowset results. It can
// run against an in-process provider (optionally persisted with -dir) or a
// remote dmserver (-connect).
//
// Usage:
//
//	dmsql                      # in-memory provider, interactive
//	dmsql -dir ./data          # persisted provider
//	dmsql -connect :7700       # remote provider
//	dmsql -f script.dmx        # execute a script file, then exit
//	echo "SELECT 1;" | dmsql   # execute stdin, then exit
//
// -timing prints per-statement elapsed time; in remote mode the figure is
// the server-side execution time from the stats every response carries.
//
// Shell commands: \help, \tables, \views, \models, \d <model>, \save, \quit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dmclient"
	"repro/internal/lex"
	"repro/internal/provider"
	"repro/internal/rowset"
)

// executor abstracts local and remote providers.
type executor interface {
	Execute(command string) (*rowset.Rowset, error)
}

// localExec adapts a provider session to the executor interface: the shell
// is one interactive consumer, so it gets one session for its lifetime.
type localExec struct {
	s *provider.Session
}

func (l localExec) Execute(command string) (*rowset.Rowset, error) {
	return l.s.Execute(context.Background(), command)
}

// shell bundles the execution target with display options.
type shell struct {
	exec   executor
	local  *provider.Provider // nil in remote mode
	remote *dmclient.Client   // nil in local mode
	timing bool
}

func main() {
	dir := flag.String("dir", "", "persistence directory for the in-process provider")
	connect := flag.String("connect", "", "address of a remote dmserver (host:port)")
	file := flag.String("f", "", "script file to execute instead of reading stdin")
	timing := flag.Bool("timing", false, "print per-statement elapsed time (server-side in remote mode)")
	flag.Parse()

	sh := &shell{timing: *timing}
	switch {
	case *connect != "":
		c, err := dmclient.New(*connect)
		if err != nil {
			fatal("connect: %v", err)
		}
		defer c.Close()
		sh.exec, sh.remote = c, c
	default:
		var opts []provider.Option
		if *dir != "" {
			opts = append(opts, provider.WithDirectory(*dir))
		}
		p, err := provider.New(opts...)
		if err != nil {
			fatal("provider: %v", err)
		}
		sh.local = p
		sh.exec = localExec{s: p.NewSession(provider.WithSessionOrigin("dmsql"))}
	}

	in := os.Stdin
	interactive := *file == "" && isTerminal()
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal("open script: %v", err)
		}
		defer f.Close()
		in = f
	}

	if interactive {
		fmt.Println("dmsql — OLE DB for Data Mining shell. \\help for help, \\quit to exit.")
	}
	run(in, sh, interactive)
}

func run(in *os.File, sh *shell, interactive bool) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var buf strings.Builder
	prompt := func() {
		if !interactive {
			return
		}
		if buf.Len() == 0 {
			fmt.Print("dm> ")
		} else {
			fmt.Print("..> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !shellCommand(trimmed, sh) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmts, err := lex.SplitStatements(buf.String())
			if err == nil && endsComplete(buf.String()) {
				buf.Reset()
				for _, s := range stmts {
					execute(sh, s)
				}
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				buf.Reset()
			}
		}
		prompt()
	}
	// Flush a trailing statement without ';'.
	if s := strings.TrimSpace(buf.String()); s != "" {
		execute(sh, s)
	}
}

// endsComplete reports whether the buffered text ends at a statement
// boundary (its last non-space token region closes with ';').
func endsComplete(src string) bool {
	toks, err := lex.Tokenize(src)
	if err != nil || len(toks) < 2 {
		return false
	}
	return toks[len(toks)-2].IsPunct(";")
}

func execute(sh *shell, stmt string) {
	start := time.Now()
	rs, err := sh.exec.Execute(stmt)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	fmt.Print(rs.String())
	fmt.Printf("(%d rows)\n", rs.Len())
	if sh.timing {
		// In remote mode prefer the server's own execution time, from the
		// response's stats, over the round trip. The stats' seq is the
		// statement's DM_QUERY_LOG/DM_FLIGHT_RECORDER join key — print it so
		// a slow statement can be looked up later.
		var seq int64
		if sh.remote != nil {
			if stats, ok := sh.remote.Stats(); ok {
				elapsed, seq = stats.Elapsed, stats.Seq
			}
		}
		if seq > 0 {
			fmt.Printf("Time: %s (seq %d)\n", elapsed.Round(time.Microsecond), seq)
		} else {
			fmt.Printf("Time: %s\n", elapsed.Round(time.Microsecond))
		}
	}
}

// shellCommand handles backslash commands; returns false to exit.
func shellCommand(cmd string, sh *shell) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return false
	case "\\help", "\\h":
		fmt.Println(`statements end with ';'. Shell commands:
  \tables        list relational tables (local provider only)
  \views         list views (local provider only)
  \models        list mining models
  \d <model>     show a model's definition (DDL)
  \save          persist tables (requires -dir)
  \quit          exit`)
	case "\\tables":
		if sh.local == nil {
			fmt.Fprintln(os.Stderr, "\\tables needs a local provider")
			break
		}
		for _, n := range sh.local.DB.Names() {
			fmt.Println(n)
		}
	case "\\views":
		if sh.local == nil {
			fmt.Fprintln(os.Stderr, "\\views needs a local provider")
			break
		}
		for _, n := range sh.local.Engine.ViewNames() {
			fmt.Println(n)
		}
	case "\\models":
		rs, err := sh.exec.Execute("SELECT * FROM $SYSTEM.MINING_MODELS")
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Print(rs.String())
	case "\\d":
		if len(fields) < 2 {
			fmt.Fprintln(os.Stderr, "usage: \\d <model>")
			break
		}
		if sh.local == nil {
			fmt.Fprintln(os.Stderr, "\\d needs a local provider")
			break
		}
		m, err := sh.local.Model(strings.Join(fields[1:], " "))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Println(m.Def.DDL())
	case "\\save":
		if sh.local == nil {
			fmt.Fprintln(os.Stderr, "\\save needs a local provider")
			break
		}
		if err := sh.local.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			break
		}
		fmt.Println("saved")
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s (try \\help)\n", fields[0])
	}
	return true
}

func isTerminal() bool {
	info, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
