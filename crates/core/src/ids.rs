//! Identifiers for stacks, modules, services and timers.

use std::fmt;

/// Identifies one protocol stack, i.e. one machine/process in the system
/// (the paper's "stack i").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StackId(pub u32);

impl StackId {
    /// The index as `usize`, for indexing per-stack vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stack{}", self.0)
    }
}

impl fmt::Display for StackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stack{}", self.0)
    }
}

/// Identifies one module instance within a stack. Fresh ids are allocated
/// by the stack each time a module is created; ids are never reused, so a
/// dangling `ModuleId` (e.g. of a destroyed module) is detectable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub u64);

impl fmt::Debug for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A routing key within a service: which of its users a response is for
/// ([`ModuleCtx::respond_on`](crate::stack::ModuleCtx::respond_on),
/// [`Module::listens_on`](crate::module::Module::listens_on)).
///
/// One number, `incarnation · 16 + base`, on the wire as one varint: a
/// `base` (< 16) names a protocol's slot in a channel table, and the
/// `incarnation` tells apart the modules of one protocol that a dynamic
/// update runs side by side. Incarnation 0 of base `b` is the single byte
/// `b`. Incarnations of one base only rise (each replacement takes a fresh
/// one), which is what lets the stack drop a response for an incarnation
/// older than a live listener's (`Channel::supersedes`). Incarnations
/// from 2⁶⁰ up wrap onto lower ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(pub(crate) u64);

impl Channel {
    /// Channel `base` of `incarnation`. A `const fn`: in a constant, a
    /// base of 16 or more fails to compile.
    pub const fn new(base: u8, incarnation: u64) -> Channel {
        assert!(base < 16, "a channel base is below 16");
        Channel(incarnation << 4 | base as u64)
    }

    /// The same base at `incarnation`.
    pub const fn at(self, incarnation: u64) -> Channel {
        Channel(incarnation << 4 | (self.0 & 15))
    }

    /// Whether this is a later incarnation of `other`'s base.
    pub(crate) fn supersedes(self, other: Channel) -> bool {
        self.0 & 15 == other.0 & 15 && self.0 > other.0
    }
}

/// Identifies a timer set by a module via
/// [`ModuleCtx::set_timer`](crate::stack::ModuleCtx::set_timer).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

/// The entry for `name` in the process-wide intern pool, made on first
/// use. The pool never frees a name and grows with the number of
/// *distinct* names in the process (service names and module kinds, a few
/// dozen), never with stack count or message volume; a lookup takes its
/// lock, so hot paths keep the handle they were built with instead of
/// making it again.
fn intern(name: &str) -> &'static &'static str {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static POOL: OnceLock<Mutex<BTreeMap<&'static str, &'static &'static str>>> = OnceLock::new();
    let mut pool =
        POOL.get_or_init(Default::default).lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&entry) = pool.get(name) {
        return entry;
    }
    let name: &'static str = Box::leak(Box::from(name));
    let entry: &'static &'static str = Box::leak(Box::new(name));
    pool.insert(name, entry);
    entry
}

/// An interned name: one word, `Copy` — a handle to the name's entry in
/// the process-wide intern pool. What a [`ServiceId`] is, and what a
/// stack keeps of a module's kind ([`crate::Module::kind`]) and a trace
/// entry carries of it.
///
/// Two `Name`s compare equal iff their strings are equal, regardless of
/// how they were made, and they order, hash and print by string — the
/// handle itself is never observable. Dereferences to the string.
#[derive(Clone, Copy)]
pub struct Name(&'static &'static str);

impl Name {
    /// The handle for `name`.
    pub fn new(name: impl AsRef<str>) -> Name {
        Name(intern(name.as_ref()))
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq for Name {
    /// One pool entry per string, so the same string is the same handle.
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Name {
    #[inline]
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The name of a service — the *specification* of a distributed protocol
/// (the paper's lower-case `p`, `q`, `r`).
///
/// One word, `Copy`: an interned [`Name`]. Two `ServiceId`s compare equal
/// iff their names are equal, regardless of how they were created, and
/// they order, hash and print by name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(Name);

impl ServiceId {
    /// Create a service id from a name.
    ///
    /// Every `ServiceId` for the same name is the same handle, so a call,
    /// a response, a step report and a trace entry each carry eight bytes
    /// and copying one touches no reference count. This takes the intern
    /// pool's lock (see [`Name`]).
    pub fn new(name: impl AsRef<str>) -> ServiceId {
        ServiceId(Name::new(name))
    }

    /// The service name.
    #[inline]
    pub fn name(&self) -> &str {
        self.0.as_str()
    }

    /// The indirection interface `r-<name>` for this service
    /// (paper, Figure 3): callers of the updateable service are rewired to
    /// this id, which the replacement module provides.
    pub fn replaced(&self) -> ServiceId {
        ServiceId::new(crate::svc::replaced(self.name()))
    }
}

impl From<&str> for ServiceId {
    fn from(s: &str) -> ServiceId {
        ServiceId::new(s)
    }
}

impl From<String> for ServiceId {
    fn from(s: String) -> ServiceId {
        ServiceId::new(s)
    }
}

impl fmt::Debug for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc:{}", self.name())
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn service_ids_compare_by_name() {
        let a = ServiceId::new("abcast");
        let b: ServiceId = "abcast".into();
        let c: ServiceId = String::from("consensus").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn a_service_id_is_one_word_that_orders_and_prints_by_name() {
        assert_eq!(std::mem::size_of::<ServiceId>(), 8);
        assert_eq!(std::mem::size_of::<Option<ServiceId>>(), 8);
        // Interned in the opposite of name order: the handles' addresses
        // say nothing about the order of the ids.
        let z = ServiceId::new("ids-test-z");
        let a = ServiceId::new("ids-test-a");
        let copy = z;
        assert_eq!(copy, z);
        assert!(a < z);
        assert!(z > a);
        assert_eq!(z.cmp(&ServiceId::new(String::from("ids-test-z"))), std::cmp::Ordering::Equal);
        let mut sorted = [z, a, ServiceId::new("ids-test-m")];
        sorted.sort();
        let names: Vec<&str> = sorted.iter().map(ServiceId::name).collect();
        assert_eq!(names, ["ids-test-a", "ids-test-m", "ids-test-z"]);
        assert_eq!(format!("{a} {a:?}"), "ids-test-a svc:ids-test-a");
    }

    #[test]
    fn a_module_kind_and_a_service_of_one_name_share_one_pool_entry() {
        assert_eq!(std::mem::size_of::<Name>(), 8);
        let kind = Name::new("ids-test-kind");
        assert_eq!(kind, Name::from("ids-test-kind"));
        assert!(std::ptr::eq(kind.as_str(), ServiceId::new("ids-test-kind").name()));
        assert!(kind.starts_with("ids-"), "a name dereferences to its string");
        assert_eq!(format!("{kind:?}"), "\"ids-test-kind\"");
    }

    #[test]
    fn replaced_service_name() {
        let p = ServiceId::new("abcast");
        assert_eq!(p.replaced().name(), "r-abcast");
        // The indirection of an indirection is distinct again.
        assert_eq!(p.replaced().replaced().name(), "r-r-abcast");
    }

    #[test]
    fn a_channel_is_a_base_at_an_incarnation() {
        const CT: Channel = Channel::new(4, 0);
        assert_eq!(CT.at(3), Channel::new(4, 3));
        assert_eq!(CT.at(3).at(0), CT);
        assert!(CT.at(2).supersedes(CT.at(1)));
        assert!(!CT.at(1).supersedes(CT.at(1)) && !CT.at(1).supersedes(CT.at(2)));
        assert!(!Channel::new(5, 9).supersedes(CT.at(1)), "another base");
    }

    #[test]
    fn stack_id_indexing_and_display() {
        let s = StackId(3);
        assert_eq!(s.idx(), 3);
        assert_eq!(format!("{s}"), "stack3");
        assert_eq!(format!("{:?}", ModuleId(9)), "m9");
    }
}
