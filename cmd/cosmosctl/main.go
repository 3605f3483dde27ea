// Command cosmosctl is the CLI client of cosmosd, built on the
// transport-agnostic cosmos.Client session API (cosmos.Dial).
//
//	cosmosctl -addr :7654 register -stream 'Trades(symbol string, price float)' -rate 100 -node 0
//	cosmosctl -addr :7654 publish  -stream Trades -ts 1000 -values 'ACME,101.5'
//	cosmosctl -addr :7654 submit   -cql 'SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100' -node 3 -count 10
//	cosmosctl explain -cql 'SELECT symbol, price FROM Trades [Range 5 Minute] WHERE price > 100'
//	cosmosctl -addr :7654 catalog
//	cosmosctl -addr :7654 stats
//	cosmosctl -addr :7654 top -interval 1s -n 5
//	cosmosctl -addr :7654 quiesce
//
// `submit` streams results until -count results arrived (0 = forever, or
// until the server ends the subscription — e.g. a graceful cosmosd
// shutdown). `explain` is local: it parses the query without a server.
// `query` is accepted as an alias of `submit`.
//
// With -retry the session is resilient: a lost connection is redialed
// with backoff and live subscriptions resume on the new connection
// (results lost while disconnected are reported as a gap). Without it
// any connection failure exits non-zero immediately. A graceful cosmosd
// shutdown ends the session cleanly in both modes — it never triggers a
// reconnect loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cosmos"
	"cosmos/internal/stream"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "cosmosd address")
	retry := flag.Bool("retry", false,
		"survive connection loss: redial with backoff and resume subscriptions")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	// explain is purely local — no connection.
	if args[0] == "explain" {
		cmdExplain(args[1:])
		return
	}

	var opts []cosmos.DialOption
	if *retry {
		opts = append(opts, cosmos.WithResilience(cosmos.Resilience{
			MaxRetries: 120,
			MinBackoff: 50 * time.Millisecond,
			MaxBackoff: 2 * time.Second,
		}))
	}
	client, err := cosmos.Dial(*addr, opts...)
	if err != nil {
		fail("cannot connect to cosmosd at %s: %v (is cosmosd running?)", *addr, err)
	}
	defer client.Close()

	switch args[0] {
	case "register":
		cmdRegister(client, args[1:])
	case "publish":
		cmdPublish(client, args[1:])
	case "submit", "query":
		cmdSubmit(client, args[1:])
	case "catalog":
		cmdCatalog(client)
	case "stats":
		cmdStats(client)
	case "top":
		cmdTop(client, args[1:])
	case "quiesce":
		if err := client.Quiesce(); err != nil {
			fail("quiesce: %v", err)
		}
		fmt.Println("quiesced")
	default:
		usage()
	}
}

// fail prints one clear message and exits non-zero — connection-level
// failures must never surface as a raw panic or a zero exit.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cosmosctl: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: cosmosctl [-addr host:port] [-retry] register|publish|submit|explain|catalog|stats|top|quiesce [flags]")
	os.Exit(2)
}

// parseSchemaDDL parses "Name(attr kind, attr kind, ...)".
func parseSchemaDDL(ddl string) (*stream.Schema, error) {
	open := strings.Index(ddl, "(")
	if open < 0 || !strings.HasSuffix(ddl, ")") {
		return nil, fmt.Errorf("schema must look like Name(attr kind, ...)")
	}
	name := strings.TrimSpace(ddl[:open])
	body := ddl[open+1 : len(ddl)-1]
	var fields []stream.Field
	for _, part := range strings.Split(body, ",") {
		bits := strings.Fields(strings.TrimSpace(part))
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad field %q", part)
		}
		kind, err := stream.ParseKind(bits[1])
		if err != nil {
			return nil, err
		}
		fields = append(fields, stream.Field{Name: bits[0], Kind: kind})
	}
	return stream.NewSchema(name, fields...)
}

func cmdRegister(c cosmos.Client, args []string) {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	ddl := fs.String("stream", "", "schema DDL: Name(attr kind, ...)")
	rate := fs.Float64("rate", 1, "publication rate, tuples/sec")
	node := fs.Int("node", 0, "overlay node hosting the source")
	fs.Parse(args)
	schema, err := parseSchemaDDL(*ddl)
	if err != nil {
		fail("%v", err)
	}
	info := &stream.Info{Schema: schema, Rate: *rate}
	if _, err := c.RegisterStream(info, *node); err != nil {
		fail("%v", err)
	}
	fmt.Printf("registered %s at node %d\n", schema, *node)
}

func cmdPublish(c cosmos.Client, args []string) {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	name := fs.String("stream", "", "stream name")
	ts := fs.Int64("ts", 0, "application timestamp (ms)")
	raw := fs.String("values", "", "comma-separated attribute values")
	fs.Parse(args)
	if *name == "" {
		fail("-stream required")
	}
	// The source carries its catalog schema — sources publish into
	// streams any session registered.
	src, err := c.Source(*name)
	if err != nil {
		fail("%v", err)
	}
	schema := src.Schema()
	parts := strings.Split(*raw, ",")
	if len(parts) != schema.Arity() {
		fail("%d values for %d attributes", len(parts), schema.Arity())
	}
	values := make([]stream.Value, len(parts))
	for i, part := range parts {
		v, err := parseValue(schema.Fields[i].Kind, strings.TrimSpace(part))
		if err != nil {
			fail("%v", err)
		}
		values[i] = v
	}
	t, err := stream.NewTuple(schema, stream.Timestamp(*ts), values...)
	if err != nil {
		fail("%v", err)
	}
	if err := src.Publish(t); err != nil {
		fail("%v", err)
	}
	// Publish only accepted the tuple into the connection's window; Close
	// waits for the daemon's acknowledgement and reports a refusal.
	if err := c.Close(); err != nil {
		fail("%v", err)
	}
	fmt.Println("published", t)
}

func parseValue(kind stream.Kind, s string) (stream.Value, error) {
	switch kind {
	case stream.KindInt:
		n, err := strconv.ParseInt(s, 10, 64)
		return stream.Int(n), err
	case stream.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		return stream.Float(f), err
	case stream.KindBool:
		b, err := strconv.ParseBool(s)
		return stream.Bool(b), err
	case stream.KindTime:
		n, err := strconv.ParseInt(s, 10, 64)
		return stream.Time(stream.Timestamp(n)), err
	default:
		return stream.String_(s), nil
	}
}

func cmdSubmit(c cosmos.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	cqlText := fs.String("cql", "", "continuous query text")
	node := fs.Int("node", 0, "user's overlay node")
	count := fs.Int("count", 0, "exit after N results (0 = run until the subscription ends)")
	fs.Parse(args)
	sub, err := c.Submit(context.Background(), *cqlText, *node)
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "query %s running; streaming results...\n", sub.Tag())
	received := 0
	for t := range sub.Results() {
		fmt.Println(t)
		received++
		if *count > 0 && received == *count {
			if err := sub.Cancel(); err != nil {
				fmt.Fprintf(os.Stderr, "cosmosctl: cancel: %v\n", err)
			}
			// Keep draining: buffered results still arrive until the
			// channel closes.
		}
	}
	for _, g := range sub.Gaps() {
		fmt.Fprintf(os.Stderr, "cosmosctl: %s\n", g)
	}
	if err := sub.Err(); err != nil {
		fail("connection to cosmosd lost: %v (rerun with -retry to resume across restarts)", err)
	}
	fmt.Fprintf(os.Stderr, "subscription %s ended after %d results\n", sub.Tag(), received)
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	cqlText := fs.String("cql", "", "continuous query text")
	fs.Parse(args)
	info, err := cosmos.Explain(*cqlText)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(info)
}

func cmdCatalog(c cosmos.Client) {
	infos, err := c.Catalog()
	if err != nil {
		fail("%v", err)
	}
	for _, info := range infos {
		fmt.Printf("%s  rate=%.1f/s\n", info.Schema, info.Rate)
	}
}

func cmdStats(c cosmos.Client) {
	st, err := c.Stats()
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("queries:    %d\n", st.Queries)
	fmt.Printf("processors: %d\n", st.Processors)
	for i := range st.LoadPerProc {
		fmt.Printf("  p%d: load=%d groups=%d\n", i, st.LoadPerProc[i], st.GroupsPerProc[i])
	}
	fmt.Printf("data bytes: %d\n", st.TotalDataBytes)
	fmt.Printf("links:      %d\n", len(st.Links))
	for _, ls := range topLinks(st.Links, 5) {
		fmt.Printf("  %d-%d: data=%dB/%d msgs ctrl=%dB/%d msgs\n",
			ls.A, ls.B, ls.DataBytes, ls.DataMsgs, ls.CtrlBytes, ls.CtrlMsgs)
	}
}

// topLinks returns the n busiest links by data bytes (ties keep catalog
// order), skipping idle ones.
func topLinks(links []cosmos.LinkStats, n int) []cosmos.LinkStats {
	busy := make([]cosmos.LinkStats, 0, len(links))
	for _, ls := range links {
		if ls.DataBytes > 0 || ls.CtrlBytes > 0 {
			busy = append(busy, ls)
		}
	}
	sort.SliceStable(busy, func(i, j int) bool { return busy[i].DataBytes > busy[j].DataBytes })
	if len(busy) > n {
		busy = busy[:n]
	}
	return busy
}
