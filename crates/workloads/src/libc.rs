//! A deterministic synthetic "musl-libc v1.0.5".
//!
//! The paper's library-linking policy pre-computes "the SHA-256 hashes of
//! all the functions of musl-libc v1.0.5" and verifies at load time that
//! every direct call into libc lands on a function whose bytes hash to the
//! database value. This module is the reproduction's musl: a library of
//! real musl function *names* with deterministic, self-contained x86-64
//! bodies.
//!
//! Determinism contract (what makes the hash database sound):
//!
//! - every function body is generated from a seed derived only from the
//!   function name and the instrumentation mode,
//! - bodies contain **no cross-function references** (no relocations, no
//!   calls out), so their bytes are position-independent,
//! - every body is padded with `nop` to a multiple of the 32-byte NaCl
//!   bundle, so embedding a body at any bundle-aligned offset reproduces
//!   identical bytes and identical internal padding.
//!
//! A client binary "linked against musl-libc v1.0.5" embeds these blocks
//! verbatim at bundle-aligned offsets; a client linked against a
//! *different* libc (see [`Instrumentation`] mismatches or
//! [`LibcLibrary::tampered`]) fails the policy.

use engarde_crypto::sha256::{Digest, Sha256};
use engarde_x86::encode::Assembler;
use engarde_x86::insn::Cc;
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;
use std::collections::HashMap;

/// Compiler instrumentation applied to generated code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Instrumentation {
    /// Plain code (the Fig. 3 library-linking binaries).
    #[default]
    None,
    /// Clang `-fstack-protector-all` canary sequences in every function
    /// (the Fig. 4 binaries).
    StackProtector,
    /// IFCC-instrumented indirect calls (the Fig. 5 binaries). Libc
    /// bodies themselves are unchanged (they make no indirect calls);
    /// the variant exists so generated apps can mix properly.
    Ifcc,
}

/// One synthetic libc function: name plus its position-independent,
/// bundle-padded machine code.
#[derive(Clone, Debug)]
pub struct LibcFunction {
    /// The musl function name (e.g. `memcpy`).
    pub name: &'static str,
    /// Machine code, a multiple of 32 bytes.
    pub code: Vec<u8>,
    /// Number of instructions in `code` (including padding nops).
    pub insn_count: usize,
}

/// The full synthetic library.
#[derive(Clone, Debug)]
pub struct LibcLibrary {
    functions: Vec<LibcFunction>,
    by_name: HashMap<&'static str, usize>,
    instrumentation: Instrumentation,
}

/// The version string the library models.
pub const MUSL_VERSION: &str = "1.0.5";

/// Real musl-libc exported function names used for the synthetic build.
pub const MUSL_FUNCTION_NAMES: &[&str] = &[
    // string.h
    "memcpy",
    "memmove",
    "memset",
    "memcmp",
    "memchr",
    "memrchr",
    "strcpy",
    "strncpy",
    "strcat",
    "strncat",
    "strcmp",
    "strncmp",
    "strchr",
    "strrchr",
    "strstr",
    "strlen",
    "strnlen",
    "strspn",
    "strcspn",
    "strpbrk",
    "strtok",
    "strtok_r",
    "strdup",
    "strndup",
    "strerror",
    "strcoll",
    "strxfrm",
    "strcasecmp",
    "strncasecmp",
    "strsep",
    "stpcpy",
    "stpncpy",
    "strlcpy",
    "strlcat",
    // stdlib.h
    "malloc",
    "free",
    "calloc",
    "realloc",
    "posix_memalign",
    "aligned_alloc",
    "abort",
    "atexit",
    "exit",
    "_Exit",
    "atoi",
    "atol",
    "atoll",
    "atof",
    "strtol",
    "strtoul",
    "strtoll",
    "strtoull",
    "strtof",
    "strtod",
    "strtold",
    "rand",
    "srand",
    "rand_r",
    "qsort",
    "bsearch",
    "abs",
    "labs",
    "llabs",
    "div",
    "ldiv",
    "lldiv",
    "mblen",
    "mbtowc",
    "wctomb",
    "mbstowcs",
    "wcstombs",
    "getenv",
    "setenv",
    "unsetenv",
    "putenv",
    "system",
    "realpath",
    "mkstemp",
    "mkdtemp",
    // stdio.h
    "fopen",
    "freopen",
    "fclose",
    "fflush",
    "fread",
    "fwrite",
    "fgetc",
    "fgets",
    "fputc",
    "fputs",
    "getc",
    "getchar",
    "gets",
    "putc",
    "putchar",
    "puts",
    "ungetc",
    "fseek",
    "ftell",
    "rewind",
    "fgetpos",
    "fsetpos",
    "clearerr",
    "feof",
    "ferror",
    "perror",
    "printf",
    "fprintf",
    "sprintf",
    "snprintf",
    "vprintf",
    "vfprintf",
    "vsprintf",
    "vsnprintf",
    "scanf",
    "fscanf",
    "sscanf",
    "vscanf",
    "vfscanf",
    "vsscanf",
    "remove",
    "rename",
    "tmpfile",
    "tmpnam",
    "setbuf",
    "setvbuf",
    "fileno",
    "fdopen",
    "popen",
    "pclose",
    "flockfile",
    "funlockfile",
    "ftrylockfile",
    "getline",
    "getdelim",
    "dprintf",
    "vdprintf",
    // unistd / posix
    "read",
    "write",
    "open",
    "close",
    "lseek",
    "access",
    "dup",
    "dup2",
    "pipe",
    "chdir",
    "getcwd",
    "unlink",
    "rmdir",
    "mkdir",
    "stat",
    "fstat",
    "lstat",
    "chmod",
    "chown",
    "fork",
    "execve",
    "execvp",
    "getpid",
    "getppid",
    "getuid",
    "geteuid",
    "getgid",
    "getegid",
    "setuid",
    "setgid",
    "sleep",
    "usleep",
    "nanosleep",
    "alarm",
    "pause",
    "isatty",
    "ttyname",
    "sysconf",
    "gethostname",
    "sethostname",
    "readlink",
    "symlink",
    "link",
    "truncate",
    "ftruncate",
    "fsync",
    "fdatasync",
    "sync",
    "mmap",
    "munmap",
    "mprotect",
    "msync",
    "madvise",
    "brk",
    "sbrk",
    "getpagesize",
    // time.h
    "time",
    "clock",
    "difftime",
    "mktime",
    "gmtime",
    "localtime",
    "gmtime_r",
    "localtime_r",
    "asctime",
    "ctime",
    "strftime",
    "strptime",
    "clock_gettime",
    "clock_settime",
    "gettimeofday",
    // signal.h
    "signal",
    "raise",
    "kill",
    "sigaction",
    "sigemptyset",
    "sigfillset",
    "sigaddset",
    "sigdelset",
    "sigismember",
    "sigprocmask",
    "sigsuspend",
    "sigwait",
    // pthread
    "pthread_create",
    "pthread_join",
    "pthread_detach",
    "pthread_self",
    "pthread_exit",
    "pthread_mutex_init",
    "pthread_mutex_lock",
    "pthread_mutex_trylock",
    "pthread_mutex_unlock",
    "pthread_mutex_destroy",
    "pthread_cond_init",
    "pthread_cond_wait",
    "pthread_cond_signal",
    "pthread_cond_broadcast",
    "pthread_cond_destroy",
    "pthread_rwlock_init",
    "pthread_rwlock_rdlock",
    "pthread_rwlock_wrlock",
    "pthread_rwlock_unlock",
    "pthread_key_create",
    "pthread_setspecific",
    "pthread_getspecific",
    "pthread_once",
    "pthread_attr_init",
    "pthread_attr_destroy",
    "pthread_attr_setstacksize",
    // math.h
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "sinh",
    "cosh",
    "tanh",
    "exp",
    "log",
    "log2",
    "log10",
    "pow",
    "sqrt",
    "cbrt",
    "ceil",
    "floor",
    "round",
    "trunc",
    "fmod",
    "fabs",
    "ldexp",
    "frexp",
    "modf",
    "hypot",
    "copysign",
    "nextafter",
    "fmin",
    "fmax",
    "fma",
    // ctype.h
    "isalnum",
    "isalpha",
    "isblank",
    "iscntrl",
    "isdigit",
    "isgraph",
    "islower",
    "isprint",
    "ispunct",
    "isspace",
    "isupper",
    "isxdigit",
    "tolower",
    "toupper",
    // network
    "socket",
    "bind",
    "listen",
    "accept",
    "connect",
    "send",
    "recv",
    "sendto",
    "recvfrom",
    "shutdown",
    "setsockopt",
    "getsockopt",
    "getsockname",
    "getpeername",
    "gethostbyname",
    "getaddrinfo",
    "freeaddrinfo",
    "gai_strerror",
    "inet_addr",
    "inet_ntoa",
    "inet_pton",
    "inet_ntop",
    "htons",
    "htonl",
    "ntohs",
    "ntohl",
    "select",
    "poll",
    "epoll_create",
    "epoll_ctl",
    "epoll_wait",
    // misc internals every static musl binary carries
    "__libc_start_main",
    "__libc_csu_init",
    "__errno_location",
    "__stack_chk_fail",
    "__assert_fail",
    "__fpclassify",
    "__overflow",
    "__uflow",
    "__lockfile",
    "__unlockfile",
    "__stdio_read",
    "__stdio_write",
    "__stdio_seek",
    "__stdio_close",
    "__towrite",
    "__toread",
    "__fwritex",
    "__intscan",
    "__floatscan",
    "__shlim",
    "__shgetc",
    "__syscall_ret",
    "__vdsosym",
    "__dls2",
    "__dls3",
    "__init_tls",
    "__copy_tls",
    "__set_thread_area",
    "__block_all_sigs",
    "__restore_sigs",
    "__wait",
    "__wake",
    "__timedwait",
    "__clone",
    "__unmapself",
    "__expand_heap",
    "__malloc0",
    "__memalign",
    "__bin_chunk",
    "__brk",
    "__madvise",
    "__mmap",
    "__mprotect",
    "__munmap",
    "__vm_lock",
    "__vm_unlock",
];

/// Deterministic seed for a named workload (FNV-1a of the name).
pub fn seed_for(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// 64-bit FNV-1a — the deterministic per-name seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A tiny deterministic generator (xorshift64*) so bodies do not depend
/// on any external RNG implementation details.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DetRng(u64);

impl DetRng {
    pub(crate) fn new(seed: u64) -> Self {
        DetRng(seed.max(1))
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Registers the filler generator may clobber (never `%rsp`/`%rbp`).
const SCRATCH: [Reg; 8] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
];

/// Condition codes the filler's forward branches draw from (the subset
/// with plain signed/unsigned compare semantics).
const FILLER_CCS: [Cc; 8] = [Cc::E, Cc::Ne, Cc::L, Cc::Ge, Cc::Le, Cc::G, Cc::B, Cc::Ae];

/// Emits `count` deterministic filler instructions (± a few: branch
/// constructs are emitted atomically).
///
/// The mix mirrors compiler output closely enough for the policies'
/// cost profiles: ~2/10 of instructions touch stack slots (spills and
/// reloads, what the stack-protection policy's backward dataflow scans
/// iterate over), and ~1/10 of constructs are compare-and-branch
/// diamonds (`cmp; jcc fwd; …; fwd:`), so generated code is branchy the
/// way real code is — and stays executable, since every `jcc` directly
/// follows its `cmp`.
pub(crate) fn emit_filler(asm: &mut Assembler, rng: &mut DetRng, count: usize) {
    let mut emitted = 0usize;
    while emitted < count {
        let a = SCRATCH[rng.below(SCRATCH.len() as u64) as usize];
        let b = SCRATCH[rng.below(SCRATCH.len() as u64) as usize];
        match rng.below(10) {
            0 => asm.mov_rr64(a, b),
            1 => asm.add_rr64(a, b),
            2 => asm.sub_rr64(a, b),
            3 => asm.xor_rr32(a, b),
            4 => asm.mov_ri32(a, rng.next() as u32),
            5 => asm.cmp_rr64(a, b),
            6 => asm.mov_reg_to_rbp_disp8(a, -8 - (rng.below(14) as i8) * 8),
            7 => asm.mov_rbp_disp8_to_reg(a, -8 - (rng.below(14) as i8) * 8),
            8 => {
                // A forward-branch diamond: skipped block of 1–4 movs.
                let skip = rng.below(4) as usize + 1;
                if emitted + skip + 2 > count {
                    asm.nop();
                    emitted += 1;
                    continue;
                }
                let cc = FILLER_CCS[rng.below(FILLER_CCS.len() as u64) as usize];
                let fwd = asm.label();
                asm.cmp_rr64(a, b);
                asm.jcc_label(cc, fwd);
                for _ in 0..skip {
                    let c = SCRATCH[rng.below(SCRATCH.len() as u64) as usize];
                    asm.mov_ri32(c, rng.next() as u32);
                }
                asm.bind(fwd);
                emitted += skip + 1; // cmp+jcc+skip counted below as +1
            }
            _ => asm.add_ri8(a, (rng.next() % 64) as i8),
        }
        emitted += 1;
    }
}

/// The deterministic size-and-seed profile of a libc function body:
/// `(seed, filler instruction count)`. The workload generator uses this
/// to emit *instrumented* variants of the same functions inline (where
/// self-containment is not required because no hash database applies).
pub fn body_profile(name: &str, instrumentation: Instrumentation) -> (u64, usize) {
    let seed = fnv1a(name.as_bytes()) ^ ((instrumentation as u64) << 56);
    let mut rng = DetRng::new(seed);
    // musl function sizes: mostly small leaves, some heavyweights.
    let base = 6 + rng.below(30) as usize;
    let body_insns = match name {
        "printf" | "vfprintf" | "vsnprintf" | "qsort" | "strtod" | "__floatscan" | "__intscan"
        | "malloc" | "realloc" | "getaddrinfo" | "strftime" => base + 180,
        _ if rng.below(10) == 0 => base + 60, // occasional mid-size function
        _ => base,
    };
    (rng.0, body_insns)
}

/// Generates one function body. Self-contained: the only control flow is
/// the optional canary `jne` to a local failure block (which for libc
/// functions ends in its own `ret`, keeping the body reference-free).
fn generate_body(name: &str, instrumentation: Instrumentation) -> Vec<u8> {
    let (seed, body_insns) = body_profile(name, instrumentation);
    let mut rng = DetRng::new(seed);
    let mut asm = Assembler::new();
    let protect = instrumentation == Instrumentation::StackProtector && name != "__stack_chk_fail";
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    let fail = asm.label();
    if protect {
        asm.canary_store();
    }
    emit_filler(&mut asm, &mut rng, body_insns);
    if protect {
        asm.canary_check(fail);
        asm.canary_release();
    }
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    if protect {
        // Local failure block: musl's static-link layout keeps the
        // handler call adjacent. The call target is patched by the
        // embedding generator; inside the canonical body we loop to a
        // ret so the block stays self-contained.
        asm.bind(fail);
        asm.pop_reg(Reg::Rbp);
        asm.ret();
    }
    asm.align_to(BUNDLE_SIZE);
    asm.finish()
}

impl LibcLibrary {
    /// Builds the synthetic musl with the given instrumentation mode.
    pub fn build(instrumentation: Instrumentation) -> Self {
        let mut functions = Vec::with_capacity(MUSL_FUNCTION_NAMES.len());
        let mut by_name = HashMap::new();
        for &name in MUSL_FUNCTION_NAMES {
            let code = generate_body(name, instrumentation);
            let insn_count = engarde_x86::decode::decode_all(&code, 0)
                .expect("generated libc bodies decode")
                .len();
            by_name.insert(name, functions.len());
            functions.push(LibcFunction {
                name,
                code,
                insn_count,
            });
        }
        LibcLibrary {
            functions,
            by_name,
            instrumentation,
        }
    }

    /// The instrumentation mode this library was built with.
    pub fn instrumentation(&self) -> Instrumentation {
        self.instrumentation
    }

    /// All functions, in canonical order.
    pub fn functions(&self) -> &[LibcFunction] {
        &self.functions
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&LibcFunction> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// The SHA-256 hash database the library-linking policy consumes:
    /// `name → SHA-256(code block)`.
    pub fn function_hashes(&self) -> HashMap<String, Digest> {
        self.functions
            .iter()
            .map(|f| (f.name.to_string(), Sha256::digest(&f.code)))
            .collect()
    }

    /// Total instructions across all functions.
    pub fn total_instructions(&self) -> usize {
        self.functions.iter().map(|f| f.insn_count).sum()
    }

    /// A tampered copy: the named function's body is altered (as if the
    /// client linked a different libc version or patched it). Used to
    /// exercise policy rejection.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is not a libc function name.
    pub fn tampered(&self, victim: &str) -> Self {
        let mut copy = self.clone();
        let idx = *copy
            .by_name
            .get(victim)
            .unwrap_or_else(|| panic!("{victim} is not a libc function"));
        let f = &mut copy.functions[idx];
        // Replace the first filler instruction after the 4-byte prologue
        // with a different one-byte-encodable change: flip a nop into
        // the padding tail instead, keeping the code decodable.
        let last = f.code.len() - 1;
        // Append one extra bundle of nops — size change = different bytes
        // and different hash, still valid code.
        let _ = last;
        f.code
            .extend(std::iter::repeat_n(0x90, BUNDLE_SIZE as usize));
        f.insn_count += BUNDLE_SIZE as usize;
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_x86::decode::decode_all;
    use engarde_x86::insn::InsnKind;

    #[test]
    fn library_is_deterministic() {
        let a = LibcLibrary::build(Instrumentation::None);
        let b = LibcLibrary::build(Instrumentation::None);
        assert_eq!(a.function_hashes(), b.function_hashes());
    }

    #[test]
    fn all_functions_present_and_bundle_padded() {
        let lib = LibcLibrary::build(Instrumentation::None);
        assert_eq!(lib.functions().len(), MUSL_FUNCTION_NAMES.len());
        assert!(lib.functions().len() >= 250, "musl surface is substantial");
        for f in lib.functions() {
            assert!(!f.code.is_empty(), "{} has code", f.name);
            assert_eq!(
                f.code.len() % BUNDLE_SIZE as usize,
                0,
                "{} is bundle-padded",
                f.name
            );
        }
    }

    #[test]
    fn bodies_are_self_contained() {
        // No direct calls or jumps leaving the body; every branch target
        // is internal. This is the property that makes bodies
        // position-independent and hashable.
        let lib = LibcLibrary::build(Instrumentation::StackProtector);
        for f in lib.functions() {
            let insns = decode_all(&f.code, 0).expect("decodes");
            for insn in &insns {
                if let Some(t) = insn.kind.branch_target() {
                    assert!(
                        t < f.code.len() as u64,
                        "{}: branch to {t:#x} escapes the body",
                        f.name
                    );
                }
                assert!(
                    !matches!(insn.kind, InsnKind::DirectCall { .. }),
                    "{}: libc bodies must not call out",
                    f.name
                );
            }
        }
    }

    #[test]
    fn instrumented_variant_differs_and_contains_canaries() {
        let plain = LibcLibrary::build(Instrumentation::None);
        let prot = LibcLibrary::build(Instrumentation::StackProtector);
        let memcpy_plain = plain.function("memcpy").expect("memcpy");
        let memcpy_prot = prot.function("memcpy").expect("memcpy");
        assert_ne!(memcpy_plain.code, memcpy_prot.code);
        let insns = decode_all(&memcpy_prot.code, 0).expect("decodes");
        assert!(
            insns.iter().any(|i| matches!(
                i.kind,
                InsnKind::MovFsToReg {
                    fs_offset: 0x28,
                    ..
                }
            )),
            "stack-protected memcpy loads the canary"
        );
    }

    #[test]
    fn stack_chk_fail_is_not_self_protected() {
        let prot = LibcLibrary::build(Instrumentation::StackProtector);
        let f = prot.function("__stack_chk_fail").expect("present");
        let insns = decode_all(&f.code, 0).expect("decodes");
        assert!(!insns
            .iter()
            .any(|i| matches!(i.kind, InsnKind::MovFsToReg { .. })));
    }

    #[test]
    fn hash_database_covers_every_function() {
        let lib = LibcLibrary::build(Instrumentation::None);
        let db = lib.function_hashes();
        assert_eq!(db.len(), lib.functions().len());
        assert!(db.contains_key("memcpy"));
        assert!(db.contains_key("__stack_chk_fail"));
    }

    #[test]
    fn tampered_function_hash_changes() {
        let lib = LibcLibrary::build(Instrumentation::None);
        let bad = lib.tampered("strlen");
        let db = lib.function_hashes();
        let bad_db = bad.function_hashes();
        assert_ne!(db["strlen"], bad_db["strlen"]);
        assert_eq!(db["memcpy"], bad_db["memcpy"], "other functions unchanged");
    }

    #[test]
    #[should_panic(expected = "not a libc function")]
    fn tampering_unknown_function_panics() {
        LibcLibrary::build(Instrumentation::None).tampered("no_such_fn");
    }

    #[test]
    fn insn_counts_match_decode() {
        let lib = LibcLibrary::build(Instrumentation::None);
        for f in lib.functions().iter().take(20) {
            let n = decode_all(&f.code, 0).expect("decodes").len();
            assert_eq!(n, f.insn_count, "{}", f.name);
        }
        assert!(lib.total_instructions() > 5_000);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"memcpy"), fnv1a(b"memset"));
    }
}
