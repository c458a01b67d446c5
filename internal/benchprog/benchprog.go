// Package benchprog holds the benchmark corpus: MiniC programs standing in
// for the Banescu et al. obfuscation benchmark, SPEC-style larger programs
// (Table VI), and the netperf-like vulnerable network tool used in the
// paper's case study (Section VI-C). Each program is deterministic; its
// plain-build output is the ground truth obfuscated builds must reproduce.
package benchprog

import (
	"fmt"
	"sync"

	"github.com/nofreelunch/gadget-planner/internal/codegen"
	"github.com/nofreelunch/gadget-planner/internal/mir"
	"github.com/nofreelunch/gadget-planner/internal/obfuscate"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// Program is one benchmark.
type Program struct {
	Name        string
	Description string
	Source      string
	Stdin       []byte
}

// BuildISA compiles the program for the named instruction set ("", "x64",
// "rv64", "rv64c"), optionally applying obfuscation passes. Obfuscation runs
// on the ISA-independent MIR, so every backend sees the same transformed
// module.
func BuildISA(p Program, passes []obfuscate.Pass, seed int64, isaName string) (*sbf.Binary, error) {
	var transform func(*mir.Module) error
	if len(passes) > 0 {
		transform = func(m *mir.Module) error {
			return obfuscate.Apply(m, seed, passes...)
		}
	}
	bin, err := codegen.BuildProgram(p.Source, transform, codegen.Options{ISA: isaName})
	if err != nil {
		return nil, fmt.Errorf("benchprog: %s: %w", p.Name, err)
	}
	return bin, nil
}

// Benchmarks returns the Banescu-style corpus (Fig. 1 / Table I / Table IV).
func Benchmarks() []Program {
	return []Program{
		{Name: "bubblesort", Description: "bubble sort over a pseudo-random array", Source: srcBubbleSort},
		{Name: "insertsort", Description: "insertion sort with sentinel search", Source: srcInsertSort},
		{Name: "matrixmult", Description: "dense 8x8 integer matrix multiply", Source: srcMatrixMult},
		{Name: "crc", Description: "bitwise CRC over a message buffer", Source: srcCRC},
		{Name: "streamcipher", Description: "RC4-style keystream xor cipher", Source: srcStreamCipher},
		{Name: "fibonacci", Description: "iterative and recursive Fibonacci", Source: srcFibonacci},
		{Name: "primes", Description: "sieve of Eratosthenes", Source: srcPrimes},
		{Name: "queens", Description: "N-queens solution counting", Source: srcQueens},
		{Name: "hanoi", Description: "towers of Hanoi move trace checksum", Source: srcHanoi},
		{Name: "strsearch", Description: "naive substring search", Source: srcStrSearch},
		{Name: "bitops", Description: "population count and bit tricks", Source: srcBitops},
		{Name: "tea", Description: "TEA-style block cipher rounds", Source: srcTEA},
	}
}

// Spec returns the SPEC-CPU-style larger programs (Table VI). Names follow
// the paper's benchmark selection; the programs are same-flavour stand-ins
// (see DESIGN.md substitutions).
func Spec() []Program {
	return []Program{
		{Name: "401.bzip2", Description: "RLE + move-to-front compressor round trip", Source: srcBzip2Sim},
		{Name: "429.mcf", Description: "Bellman-Ford relaxation on a synthetic network", Source: srcMcfSim},
		{Name: "445.gobmk", Description: "Go board liberties and capture evaluation", Source: srcGobmkSim},
		{Name: "456.hmmer", Description: "profile-HMM Viterbi sequence scoring", Source: srcHmmerSim},
	}
}

// byNameIndex maps the full hand-written corpus by name, built once — ByName
// sits on per-cell hot paths (CLIs, the streaming runner) that perform
// hundreds of lookups.
var byNameIndex = sync.OnceValue(func() map[string]Program {
	idx := make(map[string]Program)
	for _, p := range All() {
		idx[p.Name] = p
	}
	return idx
})

// ByName finds a program in the full corpus.
func ByName(name string) (Program, bool) {
	p, ok := byNameIndex()[name]
	return p, ok
}

// All returns every program including netperf-sim.
func All() []Program {
	out := append(Benchmarks(), Spec()...)
	return append(out, Netperf())
}

const srcBubbleSort = `
int data[40];

void fill(int seed) {
    int i;
    int x = seed;
    for (i = 0; i < 40; i++) {
        x = (x * 1103515245 + 12345) % 2147483648;
        data[i] = x % 1000;
    }
}

int main() {
    int i;
    int j;
    fill(42);
    for (i = 0; i < 40; i++) {
        for (j = 0; j + 1 < 40 - i; j++) {
            if (data[j] > data[j + 1]) {
                int t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
            }
        }
    }
    int sum = 0;
    for (i = 0; i < 40; i++) sum = sum * 3 + data[i];
    print_int(sum);
    print_char('\n');
    for (i = 1; i < 40; i++) {
        if (data[i - 1] > data[i]) { print_str("UNSORTED\n"); return 1; }
    }
    print_str("sorted\n");
    return 0;
}
`

const srcInsertSort = `
int arr[48];

int main() {
    int i;
    int x = 7;
    for (i = 0; i < 48; i++) {
        x = (x * 75 + 74) % 65537;
        arr[i] = x;
    }
    for (i = 1; i < 48; i++) {
        int key = arr[i];
        int j = i - 1;
        while (j >= 0 && arr[j] > key) {
            arr[j + 1] = arr[j];
            j--;
        }
        arr[j + 1] = key;
    }
    int acc = 0;
    for (i = 0; i < 48; i++) acc = acc ^ (arr[i] + i);
    print_int(acc);
    print_char('\n');
    return 0;
}
`

const srcMatrixMult = `
int a[64];
int b[64];
int c[64];

int main() {
    int i;
    int j;
    int k;
    for (i = 0; i < 64; i++) {
        a[i] = (i * 7 + 3) % 23;
        b[i] = (i * 11 + 5) % 19;
    }
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) {
            int s = 0;
            for (k = 0; k < 8; k++) {
                s += a[i * 8 + k] * b[k * 8 + j];
            }
            c[i * 8 + j] = s;
        }
    }
    int tr = 0;
    for (i = 0; i < 8; i++) tr += c[i * 8 + i];
    print_int(tr);
    print_char('\n');
    print_int(c[7 * 8 + 3]);
    print_char('\n');
    return 0;
}
`

const srcCRC = `
char msg[] = "the quick brown fox jumps over the lazy dog";

int crc_byte(int crc, int byte) {
    int i;
    crc = crc ^ byte;
    for (i = 0; i < 8; i++) {
        int low = crc & 1;
        crc = (crc >> 1) & 0x7FFFFFFFFFFFFFF;
        if (low) crc = crc ^ 0xEDB88320;
    }
    return crc;
}

int main() {
    int crc = 0xFFFFFFFF;
    int i = 0;
    while (msg[i]) {
        crc = crc_byte(crc, msg[i]);
        i++;
    }
    print_int(crc);
    print_char('\n');
    return 0;
}
`

const srcStreamCipher = `
char state[256];
char plain[] = "attack at dawn";
char work[32];

int main() {
    int i;
    int j = 0;
    for (i = 0; i < 256; i++) state[i] = i;
    for (i = 0; i < 256; i++) {
        j = (j + state[i] + i * 31) % 256;
        char t = state[i];
        state[i] = state[j];
        state[j] = t;
    }
    int n = 0;
    while (plain[n]) n++;
    // Encrypt.
    int si = 0;
    int sj = 0;
    for (i = 0; i < n; i++) {
        si = (si + 1) % 256;
        sj = (sj + state[si]) % 256;
        char t = state[si];
        state[si] = state[sj];
        state[sj] = t;
        work[i] = plain[i] ^ state[(state[si] + state[sj]) % 256];
    }
    int acc = 0;
    for (i = 0; i < n; i++) acc = acc * 131 + work[i];
    print_int(acc);
    print_char('\n');
    return 0;
}
`

const srcFibonacci = `
int fib_rec(int n) {
    if (n < 2) return n;
    return fib_rec(n - 1) + fib_rec(n - 2);
}

int main() {
    int a = 0;
    int b = 1;
    int i;
    for (i = 0; i < 40; i++) {
        int t = a + b;
        a = b;
        b = t;
    }
    print_int(a);
    print_char(' ');
    print_int(fib_rec(17));
    print_char('\n');
    return 0;
}
`

const srcPrimes = `
char sieve[1000];

int main() {
    int i;
    int j;
    int count = 0;
    int last = 0;
    for (i = 2; i < 1000; i++) {
        if (!sieve[i]) {
            count++;
            last = i;
            for (j = i + i; j < 1000; j += i) sieve[j] = 1;
        }
    }
    print_int(count);
    print_char(' ');
    print_int(last);
    print_char('\n');
    return 0;
}
`

const srcQueens = `
int cols[12];

int safe(int row, int col) {
    int r;
    for (r = 0; r < row; r++) {
        if (cols[r] == col) return 0;
        if (cols[r] - col == row - r) return 0;
        if (col - cols[r] == row - r) return 0;
    }
    return 1;
}

int solve(int row, int n) {
    if (row == n) return 1;
    int count = 0;
    int c;
    for (c = 0; c < n; c++) {
        if (safe(row, c)) {
            cols[row] = c;
            count += solve(row + 1, n);
        }
    }
    return count;
}

int main() {
    print_int(solve(0, 6)); // 4
    print_char('\n');
    return 0;
}
`

const srcHanoi = `
int moves = 0;
int check = 0;

void hanoi(int n, int from, int to, int via) {
    if (n == 0) return;
    hanoi(n - 1, from, via, to);
    moves++;
    check = check * 31 + from * 3 + to;
    hanoi(n - 1, via, to, from);
}

int main() {
    hanoi(9, 0, 2, 1);
    print_int(moves); // 511
    print_char(' ');
    print_int(check);
    print_char('\n');
    return 0;
}
`

const srcStrSearch = `
char hay[] = "binary gadget chains hide in obfuscated binaries everywhere";
char needles[] = "gadget|chains|missing|binaries|obf";

int match_at(char *h, char *n, int nl) {
    int i;
    for (i = 0; i < nl; i++) {
        if (h[i] == 0) return 0;
        if (h[i] != n[i]) return 0;
    }
    return 1;
}

int find(char *h, char *n, int nl) {
    int i = 0;
    while (h[i]) {
        if (match_at(&h[i], n, nl)) return i;
        i++;
    }
    return 0 - 1;
}

int main() {
    int start = 0;
    int i = 0;
    int total = 0;
    while (1) {
        if (needles[i] == '|' || needles[i] == 0) {
            int nl = i - start;
            int pos = find(hay, &needles[start], nl);
            print_int(pos);
            print_char(' ');
            total += pos;
            if (needles[i] == 0) break;
            start = i + 1;
        }
        i++;
    }
    print_int(total);
    print_char('\n');
    return 0;
}
`

const srcBitops = `
int popcount(int x) {
    int n = 0;
    while (x) {
        n++;
        x = x & (x - 1);
    }
    return n;
}

int reverse_bits(int x, int width) {
    int out = 0;
    int i;
    for (i = 0; i < width; i++) {
        out = (out << 1) | (x & 1);
        x = (x >> 1) & 0x7FFFFFFFFFFFFFFF;
    }
    return out;
}

int main() {
    int acc = 0;
    int i;
    for (i = 1; i < 120; i++) {
        acc += popcount(i * 2654435761);
        acc = acc ^ reverse_bits(i, 16);
    }
    print_int(acc);
    print_char('\n');
    return 0;
}
`

const srcTEA = `
int key0 = 0x11223344;
int key1 = 0x55667788;
int key2 = 0x99AABBCC;
int key3 = 0xDDEEFF00;

int mask32(int x) { return x & 0xFFFFFFFF; }

int main() {
    int v0 = 0x01234567;
    int v1 = 0x89ABCDEF;
    int sum = 0;
    int delta = 0x9E3779B9;
    int i;
    for (i = 0; i < 32; i++) {
        sum = mask32(sum + delta);
        v0 = mask32(v0 + (mask32(v1 << 4) + key0 ^ v1 + sum ^ ((v1 >> 5) & 0x7FFFFFF) + key1));
        v1 = mask32(v1 + (mask32(v0 << 4) + key2 ^ v0 + sum ^ ((v0 >> 5) & 0x7FFFFFF) + key3));
    }
    print_int(v0);
    print_char(' ');
    print_int(v1);
    print_char('\n');
    return 0;
}
`
