package dataflow

import (
	"bufio"
	"fmt"
	"slices"
	"strconv"
)

// Row is one record of a DataFrame. Cells hold int64, float64 or string.
type Row []any

// Int64 returns cell i as int64.
func (r Row) Int64(i int) int64 {
	switch v := r[i].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	default:
		panic(fmt.Sprintf("dataflow: column %d holds %T, not int64", i, r[i]))
	}
}

// Float64 returns cell i as float64.
func (r Row) Float64(i int) float64 {
	switch v := r[i].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	default:
		panic(fmt.Sprintf("dataflow: column %d holds %T, not float64", i, r[i]))
	}
}

// String returns cell i rendered as a string.
func (r Row) String(i int) string {
	switch v := r[i].(type) {
	case string:
		return v
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
}

// DataFrame extends an RDD of rows with a relational schema (named
// columns), the Dataframe/Dataset abstraction of Sec. III-C that lets
// PSGraph jobs sit inside SQL-flavored Spark pipelines. Operations
// compose lazily on the underlying RDD; relational steps run on RDD()
// with the generic operators.
type DataFrame struct {
	cols []string
	rdd  *RDD[Row]
}

// FromRows distributes in-memory rows as a DataFrame.
func FromRows(ctx *Context, cols []string, rows []Row, parts int) *DataFrame {
	return &DataFrame{cols: cols, rdd: Parallelize(ctx, rows, parts)}
}

// FromRDD wraps a row RDD with a schema.
func FromRDD(cols []string, rdd *RDD[Row]) *DataFrame {
	return &DataFrame{cols: cols, rdd: rdd}
}

// Columns returns the schema.
func (d *DataFrame) Columns() []string { return append([]string(nil), d.cols...) }

// RDD exposes the underlying row RDD.
func (d *DataFrame) RDD() *RDD[Row] { return d.rdd }

// ColIndex resolves a column name.
func (d *DataFrame) ColIndex(name string) (int, error) {
	if i := slices.Index(d.cols, name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("dataflow: no column %q in %v", name, d.cols)
}

// Filter keeps rows for which pred is true.
func (d *DataFrame) Filter(pred func(Row) bool) *DataFrame {
	return &DataFrame{cols: d.cols, rdd: Filter(d.rdd, pred)}
}

// Count returns the row count.
func (d *DataFrame) Count() (int64, error) { return d.rdd.Count() }

// Save writes the frame as separated text under dir, one file per
// partition.
func (d *DataFrame) Save(dir, sep string) error {
	return d.rdd.ForeachPartition(func(part int, in []Row) error {
		w := d.rdd.ctx.FS.Create(fmt.Sprintf("%s/part-%05d", dir, part))
		bw := bufio.NewWriter(w)
		for _, r := range in {
			for i := range r {
				if i > 0 {
					bw.WriteString(sep)
				}
				bw.WriteString(r.String(i))
			}
			bw.WriteByte('\n')
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return w.Close()
	})
}
