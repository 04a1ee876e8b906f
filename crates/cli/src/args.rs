//! The flag table's row types and the one argv parser.
//!
//! Every subcommand is one [`Command`] row: its path, positionals, flags,
//! help text and handler. [`Args::parse`] holds the only loop over argv in
//! the crate; the synopsis `--help` prints, every argument error and the
//! accessors a handler reads its flags through all come from that row, so
//! a flag is written once.

use std::fmt::Display;
use std::str::FromStr;

/// Every command, and bare `ccsim`, answers these with its help.
pub fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// One flag a command accepts.
pub struct Flag {
    /// Spelling on the command line, `--` included.
    pub name: &'static str,
    /// Placeholder of the value; `None` makes the flag a switch.
    pub metavar: Option<&'static str>,
    /// May be given more than once (read with [`Args::all`]).
    pub repeatable: bool,
    /// Must be given (read with [`Args::required`]).
    pub required: bool,
}

impl Flag {
    /// `[--name]`
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, metavar: None, repeatable: false, required: false }
    }

    /// `[--name <metavar>]`
    pub const fn value(name: &'static str, metavar: &'static str) -> Flag {
        Flag { metavar: Some(metavar), ..Flag::switch(name) }
    }

    /// `[--name <metavar>]...`
    pub const fn repeat(name: &'static str, metavar: &'static str) -> Flag {
        Flag { repeatable: true, ..Flag::value(name, metavar) }
    }

    /// `--name <metavar>`
    pub const fn required(name: &'static str, metavar: &'static str) -> Flag {
        Flag { required: true, ..Flag::value(name, metavar) }
    }
}

/// One subcommand: a row of `COMMANDS` in `main.rs`.
pub struct Command {
    /// The words after `ccsim` that select it (`["campaign", "worker"]`).
    pub path: &'static [&'static str],
    /// Placeholders of the positional arguments, all mandatory.
    pub positionals: &'static [&'static str],
    pub flags: &'static [Flag],
    /// First line: the summary `ccsim --help` lists. The rest: what
    /// `ccsim <cmd> --help` prints under the synopsis.
    pub about: &'static str,
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    /// `ccsim <path> <positionals> <flags>`, wrapped under a hanging indent.
    pub fn synopsis(&self) -> String {
        let mut words = vec!["ccsim".to_owned()];
        words.extend(self.path.iter().chain(self.positionals).map(|w| (*w).to_owned()));
        words.extend(self.flags.iter().map(|f| {
            let usage = f.metavar.map_or(f.name.to_owned(), |m| format!("{} <{m}>", f.name));
            match (f.required, f.repeatable) {
                (true, _) => usage,
                (false, false) => format!("[{usage}]"),
                (false, true) => format!("[{usage}]..."),
            }
        }));
        let mut out = String::from("   ");
        let mut width = out.len();
        for word in words {
            if width + 1 + word.len() > 78 {
                out.push_str("\n             ");
                width = 13;
            }
            width += 1 + word.len();
            out.push(' ');
            out.push_str(&word);
        }
        out
    }

    /// What `ccsim <cmd> --help` prints.
    pub fn help(&self) -> String {
        format!("USAGE:\n{}\n\n{}\n", self.synopsis(), self.about)
    }

    /// An argument error of this command: `ccsim <cmd>: <what>`, then its
    /// synopsis and nothing else.
    pub fn error(&self, what: impl Display) -> String {
        format!("ccsim {}: {what}\n\nUSAGE:\n{}", self.path.join(" "), self.synopsis())
    }
}

/// The parsed arguments of one invocation; handlers never see argv.
pub struct Args {
    cmd: &'static Command,
    positionals: Vec<String>,
    /// Flag occurrences in argv order; a switch carries an empty value.
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses what follows `cmd`'s path on the command line. `Ok(None)`
    /// means `--help`/`-h` was asked for.
    ///
    /// # Errors
    ///
    /// [`Command::error`] for an unknown flag, a non-repeatable flag given
    /// twice, a value flag that ends argv or is followed by a flag of this
    /// command, a wrong positional count, or a missing required flag.
    pub fn parse(cmd: &'static Command, argv: &[String]) -> Result<Option<Args>, String> {
        let is_flag = |a: &str| is_help(a) || cmd.flags.iter().any(|f| f.name == a);
        let mut args = Args { cmd, positionals: Vec::new(), given: Vec::new() };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if is_help(arg) {
                return Ok(None);
            }
            if !arg.starts_with("--") {
                args.positionals.push(arg.clone());
                continue;
            }
            let Some(flag) = cmd.flags.iter().find(|f| f.name == arg) else {
                return Err(cmd.error(format!("unknown flag {arg:?}")));
            };
            if !flag.repeatable && args.given.iter().any(|(name, _)| *name == flag.name) {
                return Err(cmd.error(format!("{arg} given more than once")));
            }
            let value = match flag.metavar {
                None => String::new(),
                Some(metavar) => match argv.next() {
                    Some(value) if !is_flag(value) => value.clone(),
                    _ => return Err(cmd.error(format!("{arg} needs a value <{metavar}>"))),
                },
            };
            args.given.push((flag.name, value));
        }
        if let Some(extra) = args.positionals.get(cmd.positionals.len()) {
            return Err(cmd.error(format!("unexpected argument {extra:?}")));
        }
        if let Some(missing) = cmd.positionals.get(args.positionals.len()) {
            return Err(cmd.error(format!("missing {missing}")));
        }
        let absent = |f: &&Flag| f.required && !args.given.iter().any(|(name, _)| *name == f.name);
        if let Some(flag) = cmd.flags.iter().find(absent) {
            return Err(cmd.error(format!("needs {} <{}>", flag.name, flag.metavar.unwrap_or(""))));
        }
        Ok(Some(args))
    }

    /// A typo in a handler fails the tests, in any build profile, instead
    /// of reading a flag that can never be set. The table has a dozen rows
    /// and is scanned once per flag read, off any hot path.
    fn declared(&self, flag: &str, takes_value: bool) {
        assert!(
            self.cmd.flags.iter().any(|f| f.name == flag && f.metavar.is_some() == takes_value),
            "`ccsim {}` reads {flag}, which its table row does not declare that way",
            self.cmd.path.join(" ")
        );
    }

    /// An argument error raised by the handler, shaped like the parser's.
    pub fn error(&self, what: impl Display) -> String {
        self.cmd.error(what)
    }

    /// The `i`-th positional; the parser has checked the count.
    pub fn pos(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.declared(flag, false);
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// Every value of the value flag `flag`, in argv order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.declared(flag, true);
        self.given.iter().filter(move |(name, _)| *name == flag).map(|(_, v)| v.as_str())
    }

    /// The parsed value of `flag`, `None` when it was not given.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse().map_err(|_| self.error(format!("{flag} needs a valid value, not {v:?}")))
        };
        self.all(flag).next().map(parse).transpose()
    }

    /// [`Args::get`] for a count that must be at least 1.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        match self.get::<T>(flag)? {
            Some(v) if v == T::default() => Err(self.error(format!("{flag} must be at least 1"))),
            v => Ok(v),
        }
    }

    /// [`Args::get`] for a budget or threshold: a finite number, at least 0.
    pub fn non_negative(&self, flag: &str) -> Result<Option<f64>, String> {
        match self.get::<f64>(flag)? {
            Some(v) if !v.is_finite() || v < 0.0 => {
                Err(self.error(format!("{flag} must be a non-negative number")))
            }
            v => Ok(v),
        }
    }

    /// [`Args::get`] for a flag the table marks [`Flag::required`].
    pub fn required<T: FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?.ok_or_else(|| self.error(format!("needs {flag}")))
    }
}
