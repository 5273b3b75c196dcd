package exportvar

var Hidden = hidden
