// Remote reproduces Figure 1 of the paper in one process: a provider served
// over TCP by dmserver (the "analysis server"), and an application that
// only ever sees the wire — every statement, including model training and
// prediction, travels as command text and comes back as a rowset.
//
//	go run ./examples/remote
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/provider"
	"repro/internal/workload"
)

func main() {
	// Server side: a provider with the demo warehouse, exposed on a socket.
	p, err := provider.New()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.Populate(p.DB, workload.Config{Customers: 1000, Seed: 9}); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := dmserver.New(p)
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	fmt.Printf("analysis server listening on %s\n\n", l.Addr())

	// Client side: a pure consumer of the OLE DB DM command surface.
	c, err := dmclient.New(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	for _, cmd := range []string{
		`CREATE MINING MODEL [Remote Gender] (
			[Customer ID] LONG KEY,
			[Age] DOUBLE CONTINUOUS,
			[Gender] TEXT DISCRETE PREDICT
		) USING [Naive_Bayes]`,
		`INSERT INTO [Remote Gender] ([Customer ID], [Age], [Gender])
			SELECT [Customer ID], Age, Gender FROM Customers`,
	} {
		if _, err := c.Execute(cmd); err != nil {
			log.Fatalf("%v\nstatement: %s", err, cmd)
		}
	}
	fmt.Println("model created and trained over the wire")

	rs, err := c.Execute(`SELECT t.Age, Predict([Gender]) AS gender,
			PredictProbability([Gender]) AS prob
		FROM [Remote Gender] NATURAL PREDICTION JOIN
			(SELECT 52.0 AS Age) AS t`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nremote prediction:")
	fmt.Print(rs.String())

	models, err := c.Execute("SELECT * FROM $SYSTEM.MINING_MODELS")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver catalog:")
	fmt.Print(models.String())
}
