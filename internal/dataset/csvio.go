package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/csi"
)

// csvTimeLayout matches the paper's Table I timestamp granularity (50 ms).
const csvTimeLayout = "2006-01-02T15:04:05.000"

// Header returns the CSV column names: Timestamp, a0..a63, Temperature,
// Humidity, Occupancy, Count, Walking (Table I plus the raw occupant count
// and the motion ground truth for the activity extension).
func Header() []string {
	h := make([]string, 0, csi.NumSubcarriers+6)
	h = append(h, "Timestamp")
	for k := 0; k < csi.NumSubcarriers; k++ {
		h = append(h, fmt.Sprintf("a%d", k))
	}
	return append(h, "Temperature", "Humidity", "Occupancy", "Count", "Walking")
}

// WriteCSV streams the dataset to w in Table I format.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := csv.NewWriter(bw)
	if err := cw.Write(Header()); err != nil {
		return err
	}
	row := make([]string, csi.NumSubcarriers+6)
	for i := range d.Records {
		r := &d.Records[i]
		row[0] = r.Time.Format(csvTimeLayout)
		for k := 0; k < csi.NumSubcarriers; k++ {
			row[1+k] = strconv.FormatFloat(r.CSI[k], 'g', 8, 64)
		}
		row[csi.NumSubcarriers+1] = strconv.FormatFloat(r.Temp, 'f', 3, 64)
		row[csi.NumSubcarriers+2] = strconv.FormatFloat(r.Humidity, 'f', 3, 64)
		row[csi.NumSubcarriers+3] = strconv.Itoa(r.Label())
		row[csi.NumSubcarriers+4] = strconv.Itoa(r.Count)
		row[csi.NumSubcarriers+5] = strconv.Itoa(r.Walking)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(bufio.NewReaderSize(r, 1<<16))
	cr.FieldsPerRecord = csi.NumSubcarriers + 6
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	if head[0] != "Timestamp" {
		return nil, fmt.Errorf("dataset: unexpected header %q", head[0])
	}
	var d Dataset
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		var rec Record
		rec.Time, err = time.Parse(csvTimeLayout, row[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d timestamp: %w", line, err)
		}
		for k := 0; k < csi.NumSubcarriers; k++ {
			rec.CSI[k], err = strconv.ParseFloat(row[1+k], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d a%d: %w", line, k, err)
			}
		}
		if rec.Temp, err = strconv.ParseFloat(row[csi.NumSubcarriers+1], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d temperature: %w", line, err)
		}
		if rec.Humidity, err = strconv.ParseFloat(row[csi.NumSubcarriers+2], 64); err != nil {
			return nil, fmt.Errorf("dataset: line %d humidity: %w", line, err)
		}
		occ, err := strconv.Atoi(row[csi.NumSubcarriers+3])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d occupancy: %w", line, err)
		}
		if rec.Count, err = strconv.Atoi(row[csi.NumSubcarriers+4]); err != nil {
			return nil, fmt.Errorf("dataset: line %d count: %w", line, err)
		}
		if rec.Walking, err = strconv.Atoi(row[csi.NumSubcarriers+5]); err != nil {
			return nil, fmt.Errorf("dataset: line %d walking: %w", line, err)
		}
		if rec.Walking > rec.Count || rec.Walking < 0 {
			return nil, fmt.Errorf("dataset: line %d: %d walking exceeds %d present", line, rec.Walking, rec.Count)
		}
		if (rec.Count > 0) != (occ == 1) {
			return nil, fmt.Errorf("dataset: line %d: occupancy %d inconsistent with count %d", line, occ, rec.Count)
		}
		d.Records = append(d.Records, rec)
	}
	return &d, nil
}

// LoadCSV reads a dataset from path.
func LoadCSV(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
