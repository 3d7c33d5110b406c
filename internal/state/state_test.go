package state

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudless/internal/eval"
)

func sampleState() *State {
	s := New()
	s.Set(&ResourceState{
		Addr: "aws_vpc.main", Type: "aws_vpc", ID: "vpc-00000001", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"id":         eval.String("vpc-00000001"),
			"cidr_block": eval.String("10.0.0.0/16"),
			"enable_dns": eval.True,
		},
		Generation: 3,
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
		UpdatedAt:  time.Now().UTC().Truncate(time.Second),
	})
	s.Set(&ResourceState{
		Addr: "aws_subnet.s[0]", Type: "aws_subnet", ID: "subnet-00000001", Region: "us-east-1",
		Attrs: map[string]eval.Value{
			"id":     eval.String("subnet-00000001"),
			"vpc_id": eval.String("vpc-00000001"),
		},
		Dependencies: []string{"aws_vpc.main"},
	})
	s.Outputs["vpc_id"] = eval.String("vpc-00000001")
	return s
}

// setAttr edits one attribute the only way the immutable-record rule allows:
// on a copy of the record, which then replaces it. The copy holds attributes
// no cloud response did, so it drops the generation.
func setAttr(s *State, addr, name string, v eval.Value) {
	rs := s.Get(addr).Clone()
	rs.Attrs[name] = v
	rs.Generation = 0
	s.Set(rs)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("len = %d", back.Len())
	}
	vpc := back.Get("aws_vpc.main")
	if vpc == nil || vpc.ID != "vpc-00000001" || !vpc.Attr("enable_dns").Equal(eval.True) || vpc.Generation != 3 {
		t.Errorf("vpc = %+v", vpc)
	}
	sub := back.Get("aws_subnet.s[0]")
	if len(sub.Dependencies) != 1 || sub.Dependencies[0] != "aws_vpc.main" {
		t.Errorf("deps = %v", sub.Dependencies)
	}
	// A record with no generation keeps the bytes it had before the field.
	if n := strings.Count(string(data), `"generation"`); n != 1 {
		t.Errorf("encoding carries %d generation fields, want the vpc's alone:\n%s", n, data)
	}
	if !back.Outputs["vpc_id"].Equal(eval.String("vpc-00000001")) {
		t.Errorf("outputs = %v", back.Outputs)
	}
	if s.Fingerprint() != back.Fingerprint() {
		t.Error("fingerprint changed across serialization")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cloudless.state.json")
	s := sampleState()
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != s.Fingerprint() {
		t.Error("file round trip changed state")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode([]byte(`{"version": 99}`)); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := sampleState()
	c := s.Clone()
	// The clone copies the index, not the records.
	if c.Get("aws_vpc.main") != s.Get("aws_vpc.main") {
		t.Error("clone does not share the original's records")
	}
	setAttr(c, "aws_vpc.main", "cidr_block", eval.String("192.168.0.0/16"))
	c.Remove("aws_subnet.s[0]")
	c.Outputs["vpc_id"] = eval.String("vpc-2")
	if !s.Get("aws_vpc.main").Attr("cidr_block").Equal(eval.String("10.0.0.0/16")) {
		t.Error("clone attr mutation leaked")
	}
	if s.Get("aws_subnet.s[0]") == nil {
		t.Error("clone removal leaked")
	}
	if !s.Outputs["vpc_id"].Equal(eval.String("vpc-00000001")) {
		t.Error("clone output mutation leaked")
	}
}

func TestByID(t *testing.T) {
	s := sampleState()
	if rs := s.ByID("subnet-00000001"); rs == nil || rs.Addr != "aws_subnet.s[0]" {
		t.Errorf("ByID = %+v", rs)
	}
	if s.ByID("nope") != nil {
		t.Error("ByID on missing id")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a, b := sampleState(), sampleState()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical states fingerprint differently")
	}
	setAttr(b, "aws_vpc.main", "enable_dns", eval.False)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("changed state has same fingerprint")
	}
}

// estate is a converged 1 002-instance estate shaped like the repository
// benchmark's (one VPC, 333 subnets, 334 NICs and 334 VMs, with the
// simulator's attributes), encoded as snapshot.json holds it.
func estate(tb testing.TB) []byte {
	tb.Helper()
	s := New()
	s.Serial = 2
	at := time.Date(2026, 10, 18, 1, 42, 42, 648001740, time.UTC)
	add := func(addr, typ, id string, attrs map[string]eval.Value, deps ...string) {
		attrs["id"] = eval.String(id)
		s.Set(&ResourceState{Addr: addr, Type: typ, ID: id, Region: "us-east-1", Attrs: attrs, Generation: 1,
			Dependencies: deps, CreatedAt: at, UpdatedAt: at.Add(time.Microsecond)})
		at = at.Add(37 * time.Microsecond)
	}
	add("aws_vpc.r", "aws_vpc", "vpc-00000001", map[string]eval.Value{
		"arn": eval.String("arn:sim:aws:us-east-1:vpc-00000001"), "cidr_block": eval.String("10.0.0.0/16"),
		"enable_dns": eval.True, "name": eval.String("rand"),
	})
	for i := 0; i < 333; i++ {
		add(fmt.Sprintf("aws_subnet.r[%d]", i), "aws_subnet", fmt.Sprintf("subnet-%08d", i+2), map[string]eval.Value{
			"cidr_block": eval.String(fmt.Sprintf("10.0.%d.%d/25", i/2, i%2*128)),
			"name":       eval.String(fmt.Sprintf("r-sub-%d", i)), "vpc_id": eval.String("vpc-00000001"),
		}, "aws_vpc.r")
	}
	for i := 0; i < 334; i++ {
		nic := fmt.Sprintf("network_interface-%08d", 335+i)
		add(fmt.Sprintf("aws_network_interface.r%d", i), "aws_network_interface", nic, map[string]eval.Value{
			"mac_address": eval.String(fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff)),
			"name":        eval.String(fmt.Sprintf("r-nic-%d", i)),
			"subnet_id":   eval.String(fmt.Sprintf("subnet-%08d", 2+i*7%333)),
		}, "aws_subnet.r")
		add(fmt.Sprintf("aws_virtual_machine.r%d", i), "aws_virtual_machine", fmt.Sprintf("virtual_machine-%08d", 669+i), map[string]eval.Value{
			"image": eval.String("ami-linux-2026"), "instance_type": eval.String("t3.micro"),
			"name": eval.String(fmt.Sprintf("r-vm-%d", i)), "nic_ids": eval.Strings(nic),
			"private_ip": eval.String(fmt.Sprintf("10.0.%d.%d", i/200, i%200+10)),
			"public_ip":  eval.String(fmt.Sprintf("52.0.%d.%d", i/200, i%200+10)), "state": eval.String("running"),
		}, fmt.Sprintf("aws_network_interface.r%d", i))
	}
	data, err := s.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDecodeAllocationCeiling pins what reading a state allocates per
// record: ≤18 for the 1 002-instance estate. The encoding/json decoder Decode
// replaced made 36.4 here (a map[string]any per record, then a copy of every
// value); the one-pass reader makes 9.9.
func TestDecodeAllocationCeiling(t *testing.T) {
	data := estate(t)
	per := testing.AllocsPerRun(5, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	}) / 1002
	if per > 18 {
		t.Errorf("decoding the 1 002-record estate allocated %.1f times per record, want at most 18", per)
	}
}

// BenchmarkStateDecode reads the 1 002-instance estate, as opening a
// snapshot.json does.
func BenchmarkStateDecode(b *testing.B) {
	data := estate(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
