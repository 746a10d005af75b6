package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/dmdriver"
	"repro/internal/dmx"
	"repro/internal/lex"
	"repro/internal/plancache"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// Layer names used on spans and in the report: the program's module names.
const (
	layerParser    = "lex+dmx+sqlengine parser"
	layerPlanCache = "plancache"
	layerStorage   = "storage"
	layerEngine    = "sqlengine"
	layerShape     = "shape"
	layerRowset    = "rowset codec"
	layerProvider  = "provider"
	layerWire      = "dmserver+dmclient"
	layerDriver    = "dmdriver"
)

const lookupsPerPass = 1000

// ledger holds, per pass, what each layer cost when called on its own with
// this workload's statements. The calls are separate from the statements the
// clients ran — a layer's share of a statement is therefore a subtraction of
// two measurements, not a span nested inside the statement.
type ledger struct {
	passes       int
	parseUs      []float64 // per statement text
	normalizeUs  []float64 // per statement text
	engineMs     []float64 // Σ over the op's source queries
	shapeMs      []float64 // Σ over the op's SHAPE casesets
	shapeRows    int64     // input rows behind shapeMs
	scanRowsPerS []float64
	lookupNs     []float64
	encodeMBs    []float64
	decodeMBs    []float64
	bytesPerRow  float64
	inprocUs     map[string][]float64 // wire workloads: the same statement in-process
	standaloneMs map[string][]float64 // per statement: its SHAPE, or else its source queries
	driverOpUs   []float64
}

// parseLikeProvider sends text down the parser the provider would pick.
func parseLikeProvider(text string, isModel func(string) bool) error {
	if lex.NewScanner(text).Peek().Is("SHAPE") {
		_, err := shape.ParseString(text)
		return err
	}
	st, err := dmx.Parse(text, isModel)
	if err != nil || st != nil {
		return err
	}
	_, err = sqlengine.Parse(text)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runLedger repeats the ledger pass until budget is spent (at least three
// passes). Every call into a layer is a span under the pass's "ledger" span.
func runLedger(ctx context.Context, def *workloadDef, e *env, stmts []statement, sink *traceSink, budget time.Duration, opBase int) (*ledger, error) {
	led := &ledger{inprocUs: make(map[string][]float64), standaloneMs: make(map[string][]float64)}
	rec := sink.rec
	eng := sqlengine.NewEngine(e.p.DB) // bare engine: no provider, no counters
	rng := rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(opBase)))
	var drv *sqlDriver
	if def.sqlDriver {
		var err error
		if drv, err = openSQLDriver(ctx, e); err != nil {
			return nil, err
		}
		defer drv.close()
	}
	timed := func(name, layer string, op, parent int, fn func() error) (time.Duration, error) {
		sp := rec.start(name, layer, op, parent)
		err := fn()
		d := rec.end(sp)
		if err != nil {
			err = fmt.Errorf("ledger %s: %w", name, err)
		}
		return d, err
	}
	for i := range stmts {
		if stmts[i].shape != "" {
			led.shapeRows += stmts[i].rows
		}
	}
	deadline := time.Now().Add(budget)
	for led.passes < 3 || time.Now().Before(deadline) {
		op := opBase + led.passes
		key := rng.Int63n(int64(e.cfg.Scale)) + 1
		root := rec.start("ledger", "bench", op, 0)
		var parse, normalize, engine, shapeT time.Duration
		for i := range stmts {
			st := &stmts[i]
			text := st.text(key)
			d, err := timed("parse "+st.name, layerParser, op, root, func() error { return parseLikeProvider(text, e.p.IsModel) })
			if err != nil {
				return nil, err
			}
			parse += d
			d, _ = timed("normalize "+st.name, layerPlanCache, op, root, func() error { plancache.Normalize(text); return nil })
			normalize += d
			var sources time.Duration
			for _, src := range st.sources {
				q := strings.Replace(src, "?", strconv.FormatInt(key, 10), 1)
				d, err := timed("source "+st.name, layerEngine, op, root, func() error { _, err := eng.ExecContext(ctx, q); return err })
				if err != nil {
					return nil, err
				}
				sources += d
			}
			engine += sources
			standalone := sources
			if st.shape != "" {
				standalone, err = timed("shape "+st.name, layerShape, op, root, func() error {
					_, err := shape.ExecuteStringContext(ctx, eng, st.shape)
					return err
				})
				if err != nil {
					return nil, err
				}
				shapeT += standalone
			}
			led.standaloneMs[st.name] = append(led.standaloneMs[st.name], ms(standalone))
			if def.wire {
				d, err := timed("inproc "+st.name, layerProvider, op, root, func() error { _, err := send(ctx, e.local, st, key); return err })
				if err != nil {
					return nil, err
				}
				led.inprocUs[st.name] = append(led.inprocUs[st.name], us(d))
			}
		}
		n := float64(len(stmts))
		led.parseUs = append(led.parseUs, us(parse)/n)
		led.normalizeUs = append(led.normalizeUs, us(normalize)/n)
		led.engineMs = append(led.engineMs, ms(engine))
		led.shapeMs = append(led.shapeMs, ms(shapeT))
		if err := led.storagePass(e, rec, rng, def.index, op, root); err != nil {
			return nil, err
		}
		if err := led.codecPass(sink, stmts, rec, op, root); err != nil {
			return nil, err
		}
		if drv != nil {
			d, err := timed("database/sql op", layerDriver, op, root, func() error { return drv.op(ctx, key) })
			if err != nil {
				return nil, err
			}
			led.driverOpUs = append(led.driverOpUs, us(d))
		}
		rec.end(root)
		led.passes++
	}
	return led, nil
}

// storagePass drains a cursor over Customers and Sales and, where the
// workload indexed Customers, probes the index on seeded keys.
func (led *ledger) storagePass(e *env, rec *recorder, rng *rand.Rand, indexed bool, op, parent int) error {
	var rows int
	sp := rec.start("scan Customers+Sales", layerStorage, op, parent)
	for _, name := range []string{"Customers", "Sales"} {
		t, err := e.p.DB.Table(name)
		if err != nil {
			return err
		}
		c := t.Cursor()
		for {
			r, err := c.Next()
			if err != nil {
				c.Close() //nolint:errcheck // the scan error is the one reported
				return err
			}
			if r == nil {
				break
			}
			rows++
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	d := rec.end(sp)
	led.scanRowsPerS = append(led.scanRowsPerS, float64(rows)/d.Seconds())
	if !indexed {
		return nil
	}
	t, err := e.p.DB.Table("Customers")
	if err != nil {
		return err
	}
	sp = rec.start("index probes", layerStorage, op, parent)
	for i := 0; i < lookupsPerPass; i++ {
		key := rng.Int63n(int64(e.cfg.Scale)) + 1
		if got, err := t.LookupEqualRows("Customer ID", key); err != nil || len(got) != 1 {
			return fmt.Errorf("ledger: index probe for key %d returned %d rows, err %v", key, len(got), err)
		}
	}
	d = rec.end(sp)
	led.lookupNs = append(led.lookupNs, float64(d.Nanoseconds())/lookupsPerPass)
	return nil
}

// codecPass encodes and decodes the results the traced clients last received.
func (led *ledger) codecPass(sink *traceSink, stmts []statement, rec *recorder, op, parent int) error {
	var buf bytes.Buffer
	var encode, decode time.Duration
	var size, rows int
	for i := range stmts {
		rs := sink.results[stmts[i].name]
		if rs == nil {
			continue
		}
		buf.Reset()
		sp := rec.start("encode "+stmts[i].name, layerRowset, op, parent)
		err := rs.Encode(&buf)
		encode += rec.end(sp)
		if err != nil {
			return err
		}
		size += buf.Len()
		rows += rs.Len()
		sp = rec.start("decode "+stmts[i].name, layerRowset, op, parent)
		_, err = rowset.Decode(&buf)
		decode += rec.end(sp)
		if err != nil {
			return err
		}
	}
	if rows == 0 {
		return nil
	}
	led.encodeMBs = append(led.encodeMBs, float64(size)/1e6/encode.Seconds())
	led.decodeMBs = append(led.decodeMBs, float64(size)/1e6/decode.Seconds())
	led.bytesPerRow = float64(size) / float64(rows)
	return nil
}

// sqlDriver runs the point_inproc op through database/sql on a registered:
// DSN that shares the provider.
type sqlDriver struct {
	db            *sql.DB
	selectQ, pred *sql.Stmt
}

func openSQLDriver(ctx context.Context, e *env) (*sqlDriver, error) {
	dmdriver.RegisterProvider("bench", e.p)
	db, err := sql.Open(dmdriver.DriverName, "registered:bench")
	if err != nil {
		return nil, err
	}
	d := &sqlDriver{db: db}
	if d.selectQ, err = db.PrepareContext(ctx, pointSelect); err == nil {
		d.pred, err = db.PrepareContext(ctx, pointPredict)
	}
	if err != nil {
		db.Close() //nolint:errcheck // the prepare error is the one reported
		return nil, err
	}
	return d, nil
}

func (d *sqlDriver) close() { d.db.Close() } //nolint:errcheck // closing an in-memory handle

// op is the ad-hoc SELECT, then the two prepared statements with the key
// bound by the driver; every result is drained like a caller would.
func (d *sqlDriver) op(ctx context.Context, key int64) error {
	adhoc := strings.Replace(pointSelect, "?", strconv.FormatInt(key, 10), 1)
	for i, query := range []func() (*sql.Rows, error){
		func() (*sql.Rows, error) { return d.db.QueryContext(ctx, adhoc) },
		func() (*sql.Rows, error) { return d.selectQ.QueryContext(ctx, key) },
		func() (*sql.Rows, error) { return d.pred.QueryContext(ctx, key) },
	} {
		rows, err := query()
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			n++
		}
		err = rows.Err()
		rows.Close() //nolint:errcheck // rows.Err above is the one that matters
		if err != nil || n != 1 {
			return fmt.Errorf("database/sql statement %d: %d rows for key %d, err %v", i, n, key, err)
		}
	}
	return nil
}
